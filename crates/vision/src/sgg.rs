//! Scene-graph generation end-to-end (§III-A) with the Table V model zoo.
//!
//! `G_sg(I) = (V_sg, E_sg)`: detections become vertices; per ordered pair,
//! the relation model produces scores (Original = Eq. (1) argmax,
//! TDE = Eq. (3) argmax) and pairs above threshold become edges.
//!
//! One per-image kernel has two outputs. [`SceneGraphGenerator::generate`]
//! returns a [`SceneGraphOutput`]: the scene graph as a `Graph` plus the
//! per-pair scores, from which the full Table V ranking of
//! (pair, predicate) triples is derived only when asked for.
//! [`SceneGraphGenerator::generate_records`] writes a run of images into
//! one flat [`SceneRecords`], which is what the offline build merges.
//! Both make the same RNG draws, fault draws and telemetry per image.

use crate::detector::{Detected, Detection, Detector, DetectorConfig};
use crate::eval::RelationPrediction;
use crate::prior::PairPrior;
use crate::record::{RecordEdge, SceneRecords};
use crate::relation::{
    evidence_matrix, PairOperand, RelationModelParams, RelationPredictor, RelationScores,
    RELATION_VOCAB,
};
use crate::scene::SyntheticImage;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use svqa_graph::{Graph, VertexId};

/// The SGG frameworks compared in Table V, as parameterisations of the
/// simulated relation model. Ordered weakest → strongest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SggModel {
    /// Zhang et al. 2017: translation-embedding model — weakest geometry.
    VTransE,
    /// Tang et al. 2019: dynamic tree composition.
    VCTree,
    /// Zellers et al. 2018: the paper's default (MOTIFNET).
    NeuralMotifs,
}

impl SggModel {
    /// All three models, in Table V order.
    pub const ALL: [SggModel; 3] = [SggModel::VTransE, SggModel::VCTree, SggModel::NeuralMotifs];

    /// Display name as printed in Table V.
    pub fn name(self) -> &'static str {
        match self {
            SggModel::VTransE => "VTransE",
            SggModel::VCTree => "VCTree",
            SggModel::NeuralMotifs => "Neural-Motifs",
        }
    }

    /// Relation-model parameters for this framework. `prior_weight` is the
    /// shared training bias; fidelity/noise encode each model's geometry
    /// reading quality, calibrated so Neural-Motifs > VCTree > VTransE on
    /// mR@K (Table V).
    pub fn params(self) -> RelationModelParams {
        match self {
            SggModel::VTransE => RelationModelParams {
                fidelity: 0.65,
                prior_weight: 1.3,
                noise: 0.14,
            },
            SggModel::VCTree => RelationModelParams {
                fidelity: 0.95,
                prior_weight: 1.25,
                noise: 0.08,
            },
            SggModel::NeuralMotifs => RelationModelParams {
                fidelity: 1.10,
                prior_weight: 1.2,
                noise: 0.06,
            },
        }
    }
}

/// Configuration of a scene-graph generation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SggConfig {
    /// Which relation framework to use.
    pub model: SggModel,
    /// Whether to apply TDE debiasing (Eq. (3)) — the Original/TDE split of
    /// Table V.
    pub use_tde: bool,
    /// Detector channel parameters.
    pub detector: DetectorConfig,
    /// Minimum score for a pair to yield an edge.
    pub edge_threshold: f64,
    /// Base seed; each image derives its own stream from `seed ^ image id`.
    pub seed: u64,
}

impl Default for SggConfig {
    fn default() -> Self {
        SggConfig {
            model: SggModel::NeuralMotifs,
            use_tde: true,
            detector: DetectorConfig::default(),
            edge_threshold: 0.35,
            seed: 0x5eed,
        }
    }
}

/// Images per record chunk of
/// [`SceneGraphGenerator::generate_record_chunks`]: small enough that the
/// offline build frees its records some tens of kilobytes at a time as it
/// attaches them (about 480 vertices and 1,200 edges per chunk on the MVQA
/// world), large enough that a part holds only a few dozen chunks.
pub const RECORD_CHUNK_IMAGES: usize = 128;

/// The generated scene graph plus evaluation bookkeeping.
#[derive(Debug, Clone)]
pub struct SceneGraphOutput {
    /// The scene graph `G_sg(I)`: one scene vertex per detection, carrying
    /// its label and image id, and one bare edge per kept pair. A vertex's
    /// box is its detection's ([`SceneGraphOutput::detections`]), and an
    /// edge's score is the highest score of its ordered pair in
    /// [`SceneGraphOutput::predictions`].
    pub graph: Graph,
    /// The detections backing each vertex, aligned with vertex ids.
    pub detections: Vec<Detection>,
    /// Vertex ids aligned with `detections`.
    pub vertex_ids: Vec<VertexId>,
    /// Relation scores of every ordered detection pair `(i, j)`, `i ≠ j`,
    /// in row-major order.
    pair_scores: Vec<RelationScores>,
}

impl SceneGraphOutput {
    /// All scored (ordered pair, predicate) predictions — the SGG
    /// evaluation protocol behind mR@K — sorted descending by score, ties
    /// in generation order. Derived from the kept per-pair scores on each
    /// call; building the scene graph does not need them.
    pub fn predictions(&self) -> Vec<RelationPrediction> {
        let n = self.detections.len();
        let pairs = (0..n).flat_map(|i| (0..n).filter(move |&j| j != i).map(move |j| (i, j)));
        let mut predictions: Vec<RelationPrediction> = pairs
            .zip(&self.pair_scores)
            .flat_map(|((sub, obj), scores)| {
                scores
                    .iter()
                    .enumerate()
                    .map(move |(relation, &score)| RelationPrediction {
                        sub,
                        obj,
                        relation,
                        score,
                    })
            })
            .collect();
        predictions.sort_by(|a, b| b.score.partial_cmp(&a.score).expect("finite"));
        predictions
    }
}

/// The scene-graph generator: detector + relation model + edge selection.
pub struct SceneGraphGenerator {
    config: SggConfig,
    detector: Detector,
    predictor: RelationPredictor,
}

impl SceneGraphGenerator {
    /// Build a generator; `prior` is the fitted training bias (use
    /// [`PairPrior::fit`] on the image corpus).
    pub fn new(config: SggConfig, prior: PairPrior) -> Self {
        let detector = Detector::new(config.detector.clone());
        let predictor = RelationPredictor::new(config.model.params(), prior);
        SceneGraphGenerator {
            config,
            detector,
            predictor,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &SggConfig {
        &self.config
    }

    /// Generate the scene graph of one image.
    pub fn generate(&self, image: &SyntheticImage) -> SceneGraphOutput {
        let mut sink = GraphSink::default();
        self.scene(image, &mut sink, &mut Scratch::default());
        SceneGraphOutput {
            graph: sink.graph,
            detections: sink.detections,
            vertex_ids: sink.vertex_ids,
            pair_scores: sink.pair_scores,
        }
    }

    /// Generate the scene graphs of a run of images as flat records of
    /// at most [`RECORD_CHUNK_IMAGES`] images each, in image order, so a
    /// consumer can free each chunk as soon as it has used it.
    pub fn generate_record_chunks(&self, images: &[SyntheticImage]) -> Vec<SceneRecords> {
        images
            .chunks(RECORD_CHUNK_IMAGES)
            .map(|chunk| self.generate_records(chunk))
            .collect()
    }

    /// Generate the scene graphs of a run of images as one flat record,
    /// in image order: the same scene graphs [`generate`](Self::generate)
    /// builds, without a `Graph` per image, the per-pair scores, feature
    /// maps or owned labels.
    pub fn generate_records(&self, images: &[SyntheticImage]) -> SceneRecords {
        let mut records = SceneRecords::new();
        let mut scratch = Scratch::default();
        for image in images {
            self.scene(image, &mut records, &mut scratch);
            records.end_image();
        }
        records
    }

    /// The per-image kernel behind both outputs: the fault gate, the
    /// image's own RNG stream, the detector's walk, then every ordered
    /// pair scored in row-major order with its argmax edge kept above
    /// threshold.
    fn scene<'a>(
        &self,
        image: &'a SyntheticImage,
        sink: &mut impl SceneSink,
        scratch: &mut Scratch<'a>,
    ) {
        let _span = svqa_telemetry::Span::enter(svqa_telemetry::stage::SGG);
        // Fault-plan gate, one draw per image. Generation is infallible, so
        // `Error` degrades to an empty scene graph (the image yields
        // nothing); `CorruptLabel` scrambles every edge predicate.
        let fault = svqa_fault::draw(svqa_fault::site::SGG_GENERATE);
        match fault {
            Some(svqa_fault::FaultKind::Error | svqa_fault::FaultKind::DropResult) => return,
            Some(svqa_fault::FaultKind::Latency(ms)) => {
                svqa_fault::apply_latency(ms, None);
            }
            Some(svqa_fault::FaultKind::CorruptLabel) | None => {}
        }
        let corrupt_edges = fault == Some(svqa_fault::FaultKind::CorruptLabel);
        let mut rng = StdRng::seed_from_u64(self.config.seed ^ u64::from(image.id));
        let Scratch {
            detected,
            operands,
            evidence,
        } = scratch;
        detected.clear();
        self.detector.walk(image, &mut rng, detected);
        sink.vertices(image.id, detected);

        // Every ordered pair is scored (the relational matrix of Eq. (3));
        // graph edges keep only the per-pair argmax above threshold. The
        // feature evidence draws nothing, so it is computed up front, each
        // unordered pair once.
        operands.clear();
        operands.extend(detected.iter().map(|d| d.operand));
        evidence_matrix(operands, evidence);
        let n = operands.len();
        for (i, sub) in operands.iter().enumerate() {
            for (j, obj) in operands.iter().enumerate() {
                if i == j {
                    continue;
                }
                let scores = self.predictor.pair_scores(
                    &evidence[i * n + j],
                    sub,
                    obj,
                    self.config.use_tde,
                    &mut rng,
                );
                let mut best = 0usize;
                for (r, &score) in scores.iter().enumerate() {
                    if score > scores[best] {
                        best = r;
                    }
                }
                let relation = (scores[best] >= self.config.edge_threshold).then(|| {
                    if corrupt_edges {
                        (best + 1) % RELATION_VOCAB.len()
                    } else {
                        best
                    }
                });
                sink.pair(i, j, &scores, relation);
            }
        }
    }
}

/// Space the per-image kernel reuses from image to image: the detector
/// walk's output, the relation model's operands and the pair evidence.
#[derive(Default)]
struct Scratch<'a> {
    detected: Vec<Detected<'a>>,
    operands: Vec<PairOperand>,
    evidence: Vec<RelationScores>,
}

/// Where the per-image kernel writes a scene graph.
trait SceneSink {
    /// The image's detections, one vertex each, in detection order.
    fn vertices(&mut self, image: u32, detected: &[Detected<'_>]);

    /// One scored ordered pair of detection indexes, in row-major order,
    /// with its edge's relation index when one is kept.
    fn pair(&mut self, sub: usize, obj: usize, scores: &RelationScores, relation: Option<usize>);
}

/// [`SceneSink`] for [`SceneGraphOutput`]: a graph per image whose
/// vertices carry their image id, the owned detections with their boxes,
/// plus every pair's scores.
#[derive(Default)]
struct GraphSink {
    graph: Graph,
    detections: Vec<Detection>,
    vertex_ids: Vec<VertexId>,
    pair_scores: Vec<RelationScores>,
}

impl SceneSink for GraphSink {
    fn vertices(&mut self, image: u32, detected: &[Detected<'_>]) {
        let n = detected.len();
        self.graph = Graph::with_capacity(n, n * 2);
        self.pair_scores.reserve_exact(n * n.saturating_sub(1));
        self.detections = detected.iter().map(Detected::detection).collect();
        self.vertex_ids = detected
            .iter()
            .map(|d| self.graph.add_scene_vertex(d.label, image))
            .collect();
    }

    fn pair(&mut self, sub: usize, obj: usize, scores: &RelationScores, relation: Option<usize>) {
        if let Some(relation) = relation {
            self.graph
                .add_edge(
                    self.vertex_ids[sub],
                    self.vertex_ids[obj],
                    RELATION_VOCAB[relation],
                )
                .expect("vertices exist");
        }
        self.pair_scores.push(*scores);
    }
}

impl SceneSink for SceneRecords {
    fn vertices(&mut self, image: u32, detected: &[Detected<'_>]) {
        for d in detected {
            self.push_vertex(d.label, d.category, image);
        }
    }

    fn pair(&mut self, sub: usize, obj: usize, _scores: &RelationScores, relation: Option<usize>) {
        if let Some(relation) = relation {
            self.push_edge(RecordEdge {
                sub: sub as u32,
                obj: obj as u32,
                relation: relation as u8,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bbox::BBox;
    use crate::scene::SceneBuilder;

    fn frisbee_scene() -> SyntheticImage {
        // Figure 3's scene: a dog jumping over grass to catch a frisbee, a
        // man watching from behind a fence.
        let mut rng = StdRng::seed_from_u64(33);
        let mut b = SceneBuilder::new(1, &mut rng);
        let dog = b.add_object("dog");
        let grass = b.add_object("grass");
        let man = b.add_object("man");
        let frisbee = b.add_object("frisbee");
        b.relate(dog, "jumping over", grass);
        b.relate(man, "behind", dog);
        b.relate(dog, "holding", frisbee);
        b.build()
    }

    fn noiseless_config(use_tde: bool) -> SggConfig {
        SggConfig {
            use_tde,
            detector: DetectorConfig {
                detect_prob: 1.0,
                confusion_prob: 0.0,
                bbox_jitter: 0.0,
                spurious_rate: 0.0,
            },
            ..SggConfig::default()
        }
    }

    #[test]
    fn scene_graph_has_vertex_per_detection() {
        let img = frisbee_scene();
        let gen = SceneGraphGenerator::new(noiseless_config(true), PairPrior::uniform());
        let out = gen.generate(&img);
        assert_eq!(out.graph.vertex_count(), 4);
        assert_eq!(out.detections.len(), 4);
        assert_eq!(out.vertex_ids.len(), 4);
        let labels: Vec<_> = out
            .graph
            .vertices()
            .map(|(id, _)| out.graph.vertex_label(id).unwrap())
            .collect();
        for l in ["dog", "grass", "man", "frisbee"] {
            assert!(labels.contains(&l), "{l} missing from {labels:?}");
        }
    }

    #[test]
    fn predictions_cover_all_ordered_pairs_sorted() {
        let img = frisbee_scene();
        let gen = SceneGraphGenerator::new(noiseless_config(true), PairPrior::uniform());
        let out = gen.generate(&img);
        let predictions = out.predictions();
        assert_eq!(predictions.len(), 4 * 3 * RELATION_VOCAB.len());
        for w in predictions.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
    }

    /// Each vertex of `out`'s graph as its label and its detection's box.
    fn boxes_of(out: &SceneGraphOutput) -> Vec<(String, BBox)> {
        out.vertex_ids
            .iter()
            .zip(&out.detections)
            .map(|(&id, d)| (out.graph.vertex_label(id).unwrap().to_owned(), d.bbox))
            .collect()
    }

    /// The labels and boxes the detector draws for `image` from the
    /// generator's stream for it.
    fn detector_boxes(gen: &SceneGraphGenerator, image: &SyntheticImage) -> Vec<(String, BBox)> {
        let mut rng = StdRng::seed_from_u64(gen.config().seed ^ u64::from(image.id));
        Detector::new(gen.config().detector.clone())
            .detect(image, &mut rng)
            .into_iter()
            .map(|d| (d.label, d.bbox))
            .collect()
    }

    /// The highest score of the ordered pair `(sub, obj)` in `out`'s
    /// predictions: the score its edge, when kept, was chosen with.
    fn pair_score(out: &SceneGraphOutput, sub: usize, obj: usize) -> f64 {
        out.predictions()
            .iter()
            .filter(|p| (p.sub, p.obj) == (sub, obj))
            .map(|p| p.score)
            .fold(f64::NEG_INFINITY, f64::max)
    }

    #[test]
    fn edges_carry_scores_and_respect_threshold() {
        let img = frisbee_scene();
        let mut cfg = noiseless_config(true);
        cfg.edge_threshold = 0.2;
        let gen = SceneGraphGenerator::new(cfg, PairPrior::uniform());
        let out = gen.generate(&img);
        assert!(out.graph.edge_count() > 0);
        for (_, e) in out.graph.edges() {
            assert!(pair_score(&out, e.src().index(), e.dst().index()) >= 0.2);
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let img = frisbee_scene();
        let gen = SceneGraphGenerator::new(SggConfig::default(), PairPrior::uniform());
        let a = gen.generate(&img);
        let b = gen.generate(&img);
        assert_eq!(a.graph.vertex_count(), b.graph.vertex_count());
        assert_eq!(a.graph.edge_count(), b.graph.edge_count());
        assert_eq!(a.predictions(), b.predictions());
    }

    #[test]
    fn records_hold_the_generated_graphs() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut images = vec![frisbee_scene()];
        for id in 2..6 {
            let mut b = SceneBuilder::new(id, &mut rng);
            let man = b.add_object("man");
            let hat = b.add_object("hat");
            let dog = b.add_object("dog");
            b.relate(man, "wearing", hat);
            b.relate(dog, "near", man);
            images.push(b.build());
        }
        let gen = SceneGraphGenerator::new(SggConfig::default(), PairPrior::fit(&images));
        let records = gen.generate_records(&images);
        assert_eq!(records.len(), images.len());
        // The records keep each vertex's label and image id and each
        // edge's endpoints and label, as the per-image graph does; the
        // boxes are the detections'.
        for (image, scene) in images.iter().zip(records.scenes()) {
            let out = gen.generate(image);
            let g = &out.graph;
            let vertices: Vec<_> = g
                .vertices()
                .map(|(id, _)| (g.vertex_label(id).unwrap(), svqa_graph::scene_image(g, id)))
                .collect();
            let recorded: Vec<_> = scene
                .vertices()
                .map(|(l, v)| (l, Some(v.image())))
                .collect();
            assert_eq!(recorded, vertices);
            assert_eq!(boxes_of(&out), detector_boxes(&gen, image));
            let edges: Vec<_> = g
                .edges()
                .map(|(id, e)| (e.src().index(), e.dst().index(), g.edge_label(id).unwrap()))
                .collect();
            let recorded: Vec<_> = scene
                .edges()
                .iter()
                .map(|e| (e.sub as usize, e.obj as usize, e.label()))
                .collect();
            assert!(!edges.is_empty());
            assert_eq!(recorded, edges);
        }
    }

    #[test]
    fn graph_values_sit_under_their_own_keys() {
        // Each vertex of a per-image graph is its own detection's: its
        // label and its image id, with the box in the detection; each edge
        // is its pair's chosen predicate, with the pair's top score.
        let img = frisbee_scene();
        let gen = SceneGraphGenerator::new(SggConfig::default(), PairPrior::uniform());
        let out = gen.generate(&img);
        let g = &out.graph;
        assert_eq!(out.detections.len(), out.vertex_ids.len());
        for &id in &out.vertex_ids {
            assert_eq!(svqa_graph::scene_image(g, id), Some(img.id));
        }
        assert_eq!(boxes_of(&out), detector_boxes(&gen, &img));
        let predictions = out.predictions();
        assert!(g.edge_count() > 0);
        for (id, e) in g.edges() {
            let (sub, obj) = (e.src().index(), e.dst().index());
            let top = predictions
                .iter()
                .find(|p| (p.sub, p.obj) == (sub, obj))
                .unwrap();
            assert_eq!(RELATION_VOCAB[top.relation], g.edge_label(id).unwrap());
            assert_eq!(top.score, pair_score(&out, sub, obj));
            assert!(top.score >= gen.config().edge_threshold);
        }
    }

    #[test]
    fn model_zoo_parameters_are_ordered() {
        let v = SggModel::VTransE.params();
        let c = SggModel::VCTree.params();
        let m = SggModel::NeuralMotifs.params();
        assert!(v.fidelity < c.fidelity && c.fidelity < m.fidelity);
        assert!(v.noise > c.noise && c.noise > m.noise);
        assert_eq!(SggModel::NeuralMotifs.name(), "Neural-Motifs");
    }

    #[test]
    fn tde_mode_differs_from_original() {
        // With a biased prior the two modes must produce different edges at
        // least sometimes.
        let mut rng = StdRng::seed_from_u64(55);
        let mut train = Vec::new();
        for i in 0..30 {
            let mut b = SceneBuilder::new(i + 100, &mut rng);
            let d = b.add_object("dog");
            let g = b.add_object("grass");
            b.relate(d, "near", g);
            train.push(b.build());
        }
        let prior = PairPrior::fit(&train);
        let img = frisbee_scene();
        let orig = SceneGraphGenerator::new(noiseless_config(false), prior.clone()).generate(&img);
        let tde = SceneGraphGenerator::new(noiseless_config(true), prior).generate(&img);
        let rels = |out: &SceneGraphOutput| {
            out.predictions()
                .iter()
                .map(|p| p.relation)
                .collect::<Vec<_>>()
        };
        assert_ne!(rels(&orig), rels(&tde));
    }
}
