//! Arc-standard transition system.
//!
//! The paper's Eq. (5) describes the Stanford parser as a sequence of
//! `(state, action)` steps. This module implements that transition system
//! (SHIFT / LEFT-ARC(l) / RIGHT-ARC(l)) and a static oracle that, given a
//! projective dependency tree, emits the derivation producing it. The rule
//! parser in [`crate::dep`] produces the trees; replaying them here both
//! certifies projectivity and exercises the paper's state/action framing.

use crate::dep::{DepLabel, DepTree};
use serde::{Deserialize, Serialize};

/// A parser action in the arc-standard system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Action {
    /// Move the front of the buffer onto the stack.
    Shift,
    /// Make the stack top the head of the second item (which is popped),
    /// with the given label.
    LeftArc(DepLabel),
    /// Make the second stack item the head of the top (which is popped),
    /// with the given label.
    RightArc(DepLabel),
}

/// The parser configuration: stack, buffer cursor, and the arcs built so
/// far.
#[derive(Debug, Clone)]
pub struct Config {
    stack: Vec<usize>,
    buffer_front: usize,
    n: usize,
    /// `heads[i] = Some((head, label))` once token `i` is attached.
    heads: Vec<Option<(usize, DepLabel)>>,
}

impl Config {
    /// Initial configuration for a sentence of `n` tokens.
    pub fn new(n: usize) -> Self {
        Config {
            stack: Vec::new(),
            buffer_front: 0,
            n,
            heads: vec![None; n],
        }
    }

    /// Whether this is a terminal configuration (buffer drained, one item on
    /// the stack).
    pub fn is_terminal(&self) -> bool {
        self.buffer_front >= self.n && self.stack.len() <= 1
    }

    /// Apply an action; returns `false` (leaving the configuration
    /// unchanged) if the action is not permissible.
    pub fn apply(&mut self, action: Action) -> bool {
        match action {
            Action::Shift => {
                if self.buffer_front >= self.n {
                    return false;
                }
                self.stack.push(self.buffer_front);
                self.buffer_front += 1;
                true
            }
            Action::LeftArc(label) => {
                if self.stack.len() < 2 {
                    return false;
                }
                let top = *self.stack.last().expect("len >= 2");
                let second = self.stack[self.stack.len() - 2];
                self.heads[second] = Some((top, label));
                self.stack.remove(self.stack.len() - 2);
                true
            }
            Action::RightArc(label) => {
                if self.stack.len() < 2 {
                    return false;
                }
                let top = self.stack.pop().expect("len >= 2");
                let second = *self.stack.last().expect("len >= 2 before pop");
                self.heads[top] = Some((second, label));
                true
            }
        }
    }
}

/// Errors from oracle derivation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OracleError {
    /// The tree is non-projective: no arc-standard derivation exists.
    NonProjective,
}

impl std::fmt::Display for OracleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OracleError::NonProjective => write!(f, "tree is non-projective"),
        }
    }
}

impl std::error::Error for OracleError {}

/// Compute the arc-standard action sequence deriving `tree` (the static
/// oracle). Fails iff the tree is non-projective.
pub fn oracle_derivation(tree: &DepTree) -> Result<Vec<Action>, OracleError> {
    let n = tree.len();
    // Gold arcs and per-head pending-children counts.
    let mut pending_children = vec![0usize; n];
    for i in 0..n {
        if let Some(h) = tree.head_of(i) {
            pending_children[h] += 1;
        }
    }
    let mut config = Config::new(n);
    let mut actions = Vec::new();
    loop {
        if config.is_terminal() {
            break;
        }
        let action = choose_oracle_action(tree, &config, &pending_children);
        match action {
            Some(a) => {
                if let Action::LeftArc(_) = a {
                    let second = config.stack[config.stack.len() - 2];
                    if let Some(h) = tree.head_of(second) {
                        pending_children[h] -= 1;
                        let _ = h;
                    }
                } else if let Action::RightArc(_) = a {
                    let top = *config.stack.last().expect("non-empty");
                    if let Some(h) = tree.head_of(top) {
                        pending_children[h] -= 1;
                        let _ = h;
                    }
                }
                let ok = config.apply(a);
                debug_assert!(ok);
                actions.push(a);
            }
            None => return Err(OracleError::NonProjective),
        }
    }
    Ok(actions)
}

/// Standard arc-standard static-oracle rule: LEFT-ARC when the second stack
/// item's gold head is the top; RIGHT-ARC when the top's gold head is the
/// second item *and* the top has collected all its children; otherwise
/// SHIFT.
fn choose_oracle_action(
    tree: &DepTree,
    config: &Config,
    pending_children: &[usize],
) -> Option<Action> {
    if config.stack.len() >= 2 {
        let top = *config.stack.last().expect("len >= 2");
        let second = config.stack[config.stack.len() - 2];
        if tree.head_of(second) == Some(top) && pending_children[second] == 0 {
            return Some(Action::LeftArc(tree.label_of(second)));
        }
        if tree.head_of(top) == Some(second) && pending_children[top] == 0 {
            return Some(Action::RightArc(tree.label_of(top)));
        }
    }
    if config.buffer_front < tree.len() {
        return Some(Action::Shift);
    }
    None
}

/// Replay a derivation and verify it reproduces `tree` exactly.
pub fn replays_to(tree: &DepTree, actions: &[Action]) -> bool {
    let mut config = Config::new(tree.len());
    for &a in actions {
        if !config.apply(a) {
            return false;
        }
    }
    if !config.is_terminal() {
        return false;
    }
    (0..tree.len()).all(|i| match tree.head_of(i) {
        Some(h) => config.heads[i] == Some((h, tree.label_of(i))),
        None => config.heads[i].is_none(),
    })
}

/// Whether `tree` is projective (has an arc-standard derivation).
pub fn is_projective(tree: &DepTree) -> bool {
    oracle_derivation(tree).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dep::RuleDependencyParser;
    use crate::pos::PosTagger;

    fn parse(q: &str) -> DepTree {
        RuleDependencyParser::new()
            .parse(&PosTagger::new().tag(q))
            .unwrap()
    }

    #[test]
    fn simple_sentence_derivation_replays() {
        let t = parse("the dog catches the frisbee");
        let actions = oracle_derivation(&t).unwrap();
        assert!(replays_to(&t, &actions));
        // 2n-1 actions for an n-token projective tree: n shifts + (n-1) arcs.
        assert_eq!(actions.len(), 2 * t.len() - 1);
    }

    #[test]
    fn paper_questions_are_projective() {
        for q in [
            "What kind of clothes are worn by the wizard?",
            "What kind of animals is carried by the pets that were situated in the car?",
            "How many dogs are sitting on the grass?",
            "Does the dog appear in front of the car?",
        ] {
            let t = parse(q);
            assert!(is_projective(&t), "non-projective parse for {q:?}");
            let actions = oracle_derivation(&t).unwrap();
            assert!(replays_to(&t, &actions), "bad replay for {q:?}");
        }
    }

    #[test]
    fn shift_fails_on_empty_buffer() {
        let mut c = Config::new(1);
        assert!(c.apply(Action::Shift));
        assert!(!c.apply(Action::Shift));
    }

    #[test]
    fn arcs_need_two_stack_items() {
        let mut c = Config::new(2);
        assert!(!c.apply(Action::LeftArc(DepLabel::Det)));
        assert!(c.apply(Action::Shift));
        assert!(!c.apply(Action::RightArc(DepLabel::Obj)));
        assert!(c.apply(Action::Shift));
        assert!(c.apply(Action::RightArc(DepLabel::Obj)));
        assert!(c.is_terminal());
    }

    #[test]
    fn wrong_derivation_does_not_replay() {
        let t = parse("the dog catches the frisbee");
        // All-shift derivation is incomplete.
        let bogus = vec![Action::Shift; t.len()];
        assert!(!replays_to(&t, &bogus));
    }
}
