//! Ring buffer of recent query profiles.
//!
//! The executor pushes one JSON document per profiled query; the metrics
//! server exposes the buffer at `/profiles/recent`. Profiles are stored as
//! opaque [`serde_json::Value`]s so this crate doesn't depend on the
//! executor's `ExecutionProfile` type (the dependency points the other
//! way).

use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::{Arc, OnceLock};

/// Default capacity of the process-global ring.
const GLOBAL_CAPACITY: usize = 32;

/// A bounded FIFO of profile documents; pushing past capacity evicts the
/// oldest. Cloning shares the underlying buffer.
#[derive(Clone)]
pub struct ProfileRing {
    inner: Arc<Mutex<VecDeque<serde_json::Value>>>,
    capacity: usize,
}

impl ProfileRing {
    /// An empty ring holding at most `capacity` profiles (min 1).
    pub fn new(capacity: usize) -> Self {
        ProfileRing {
            inner: Arc::new(Mutex::new(VecDeque::new())),
            capacity: capacity.max(1),
        }
    }

    /// Maximum number of retained profiles.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Append a profile, evicting the oldest when full.
    pub fn push(&self, profile: serde_json::Value) {
        let mut inner = self.inner.lock();
        if inner.len() == self.capacity {
            inner.pop_front();
        }
        inner.push_back(profile);
    }

    /// The retained profiles, oldest first.
    pub fn recent(&self) -> Vec<serde_json::Value> {
        self.inner.lock().iter().cloned().collect()
    }

    /// Number of retained profiles.
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    /// True when nothing has been recorded (or everything was cleared).
    pub fn is_empty(&self) -> bool {
        self.inner.lock().is_empty()
    }

    /// Drop all retained profiles.
    pub fn clear(&self) {
        self.inner.lock().clear();
    }

    /// The retained profiles as a pretty JSON array.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(&self.recent()).expect("values serialize infallibly")
    }
}

/// The process-global profile ring, fed by every built query profile
/// (`QueryRun::profile` in the pipeline) and served at
/// `/profiles/recent`.
pub fn global_profiles() -> &'static ProfileRing {
    static GLOBAL: OnceLock<ProfileRing> = OnceLock::new();
    GLOBAL.get_or_init(|| ProfileRing::new(GLOBAL_CAPACITY))
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    #[test]
    fn push_and_recent_preserve_order() {
        let ring = ProfileRing::new(8);
        assert!(ring.is_empty());
        ring.push(json!({"q": 1}));
        ring.push(json!({"q": 2}));
        let got = ring.recent();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0]["q"], json!(1));
        assert_eq!(got[1]["q"], json!(2));
    }

    #[test]
    fn capacity_evicts_oldest() {
        let ring = ProfileRing::new(3);
        for i in 0..5 {
            ring.push(json!({"q": i}));
        }
        assert_eq!(ring.len(), 3);
        let got = ring.recent();
        assert_eq!(got[0]["q"], json!(2));
        assert_eq!(got[2]["q"], json!(4));
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let ring = ProfileRing::new(0);
        assert_eq!(ring.capacity(), 1);
        ring.push(json!(1));
        ring.push(json!(2));
        assert_eq!(ring.recent(), vec![json!(2)]);
    }

    #[test]
    fn to_json_is_an_array() {
        let ring = ProfileRing::new(4);
        ring.push(json!({"question": "How many dogs?"}));
        let v: serde_json::Value = serde_json::from_str(&ring.to_json()).unwrap();
        match v {
            serde_json::Value::Array(a) => assert_eq!(a.len(), 1),
            other => panic!("expected array, got {other:?}"),
        }
    }

    #[test]
    fn clones_share_the_buffer() {
        let ring = ProfileRing::new(4);
        let clone = ring.clone();
        clone.push(json!(7));
        assert_eq!(ring.len(), 1);
        ring.clear();
        assert!(clone.is_empty());
    }
}
