//! # svqa-vision
//!
//! The visual substrate of the SVQA reproduction (§III-A of the paper):
//! scene-graph generation from images.
//!
//! The paper's pipeline uses a trained Mask R-CNN for object detection and
//! an RNN-based MOTIFNET for relation prediction, debiased with Total
//! Direct Effect (TDE). Per the substitution policy in `DESIGN.md`, images
//! are replaced by [`scene::SyntheticImage`]s — procedurally generated
//! ground-truth scenes — and the trained networks by *noise channels* over
//! that ground truth with the same interfaces and failure modes:
//!
//! * [`detector`] — the Mask R-CNN stand-in: per-category detection
//!   probability, a label confusion matrix (Fig. 8b's "toy bear → bear"),
//!   bounding-box jitter, spurious detections; emits `(b_i, m_i, l_i)`
//!   triples exactly as Eq. (1) consumes them;
//! * [`feature`] — feature maps `m_i`: deterministic vectors holding a
//!   region's geometry and depth, then an appearance signature of the
//!   true object. The relation model reads only the geometry and depth,
//!   plus the supertype of the detection's label; the appearance dims
//!   never enter a relation score;
//! * [`prior`] — the label-pair co-occurrence prior, i.e. the *training
//!   bias* that TDE subtracts, fitted on ground-truth scenes;
//! * [`relation`] — the MOTIFNET stand-in: relation probability = feature
//!   evidence (geometric compatibility of the two regions' boxes and
//!   depths) + label prior (Eq. (1)); masking the feature maps leaves the
//!   prior (Eq. (2)); the TDE difference recovers the explicit predicate
//!   (Eq. (3));
//! * [`sgg`] — scene-graph generation end-to-end, with the three model
//!   parameterisations of Table V (Neural Motifs / VCTree / VTransE), each
//!   in Original and TDE mode;
//! * [`record`] — flat scene records: a run of images' scene graphs in
//!   three buffers, for the offline build to merge without a `Graph` per
//!   image;
//! * [`eval`] — the Mean Recall@K (mR@K) metric of Exp-3.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bbox;
pub mod detector;
pub mod eval;
pub mod feature;
mod lookup;
pub mod prior;
pub mod record;
pub mod relation;
pub mod scene;
pub mod sgg;

pub use bbox::BBox;
pub use detector::{Detection, Detector, DetectorConfig};
pub use eval::{mean_recall_at_k, RelationPrediction};
pub use feature::FeatureMap;
pub use prior::PairPrior;
pub use record::{RecordEdge, RecordVertex, SceneRecord, SceneRecords};
pub use relation::{RelationPredictor, RELATION_VOCAB};
pub use scene::{SceneObject, SyntheticImage};
pub use sgg::{SceneGraphGenerator, SggConfig, SggModel, EDGE_SHAPE, VERTEX_SHAPE};
