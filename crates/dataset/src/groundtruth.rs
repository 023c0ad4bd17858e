//! Ground-truth evaluation over clean scene data + the knowledge graph.
//!
//! Question generation needs authoritative answers. This evaluator runs a
//! *structured* clause chain (no NLP involved) over the ground-truth
//! scenes, using the same category-level cross-image identity semantics as
//! the executor: "the pets situated in the car" resolves to the *category*
//! dog (Example 7 of the paper), and that category carries over to other
//! images. Because generation and execution share semantics, SVQA's
//! accuracy measures its *pipeline* fidelity (detection, SGG, parsing,
//! matching), not a semantics mismatch.

use crate::kg::CHARACTER_RELATIONS;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use svqa_graph::{Graph, IS_A};
use svqa_vision::scene::SyntheticImage;

/// A ground-truth answer.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum GtAnswer {
    /// Judgment result.
    YesNo(bool),
    /// Counting result.
    Count(usize),
    /// Reasoning result (a category or entity label).
    Entity(String),
}

/// One structured clause: `sub —pred→ obj`, heads as category/class/entity
/// nouns; empty string = wildcard.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChainClause {
    /// Subject head noun.
    pub sub: String,
    /// Predicate: a scene relation name or a knowledge-graph relation.
    pub pred: String,
    /// Object head noun.
    pub obj: String,
    /// Whether the "most frequently" constraint applies (aggregating over
    /// the side this clause provides downstream).
    pub most_frequent: bool,
}

/// Which SPOC side a link touches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Side {
    /// Subject side.
    Sub,
    /// Object side.
    Obj,
}

/// A link: clause `provider` (deeper) feeds clause `consumer`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChainLink {
    /// Provider clause index.
    pub provider: usize,
    /// Consumer clause index.
    pub consumer: usize,
    /// Consumer slot receiving the binding.
    pub consumer_side: Side,
    /// Provider side the binding is read from.
    pub provider_side: Side,
}

/// One matching clause instance: `(image idx, sub obj-idx, obj obj-idx,
/// sub label, obj label)`; `usize::MAX` as the image marks a
/// knowledge-graph pseudo-triple.
type ClausePair = (usize, usize, usize, String, String);

/// The label a clause instance carries on `side`.
fn side_label(pair: &ClausePair, side: Side) -> &str {
    match side {
        Side::Sub => &pair.3,
        Side::Obj => &pair.4,
    }
}

/// Labels on `side` of `pairs` with their support, most supported first
/// (ties broken by label).
fn ranked(pairs: &[ClausePair], side: Side) -> Vec<(&str, usize)> {
    let mut counts: HashMap<&str, usize> = HashMap::new();
    for p in pairs {
        *counts.entry(side_label(p, side)).or_insert(0) += 1;
    }
    let mut ranked: Vec<(&str, usize)> = counts.into_iter().collect();
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
    ranked
}

/// What one walk of a clause chain yields.
struct Walk {
    /// Clause 0's matching instances, under every binding it received.
    answers: Vec<ClausePair>,
    /// Whether every clause matched at least one instance.
    all_matched: bool,
    /// Whether a "most frequently" constraint had two labels tied at the
    /// top.
    tied: bool,
}

/// The ground-truth evaluator.
pub struct GroundTruth<'a> {
    images: &'a [SyntheticImage],
    /// class noun → the set of labels it covers (taxonomy closure,
    /// including the noun itself and entity names).
    closures: HashMap<String, HashSet<String>>,
}

impl<'a> GroundTruth<'a> {
    /// Build the evaluator from the scenes and the knowledge graph.
    pub fn new(images: &'a [SyntheticImage], kg: &Graph) -> Self {
        // Taxonomy closure: for each vertex, the set of labels reaching it
        // via "is a" paths (plus itself).
        let mut closures: HashMap<String, HashSet<String>> = HashMap::new();
        let is_a = kg.edge_label_id(IS_A);
        for (vid, v) in kg.vertices() {
            let label = kg.vertex_label_text(v.label_id());
            let mut members: HashSet<String> = HashSet::new();
            members.insert(label.to_owned());
            // Reverse-BFS along incoming "is a" edges.
            let mut stack = vec![vid];
            let mut seen = HashSet::new();
            seen.insert(vid);
            while let Some(cur) = stack.pop() {
                for (_, e) in kg.in_edges(cur) {
                    if Some(e.label_id()) == is_a && seen.insert(e.src()) {
                        members.insert(kg.vertex_label(e.src()).unwrap_or_default().to_owned());
                        stack.push(e.src());
                    }
                }
            }
            closures.insert(label.to_owned(), members);
        }
        GroundTruth { images, closures }
    }

    /// Labels covered by a head noun (the noun itself if it is not in the
    /// taxonomy).
    pub fn closure(&self, head: &str) -> HashSet<String> {
        self.closures
            .get(head)
            .cloned()
            .unwrap_or_else(|| [head.to_owned()].into_iter().collect())
    }

    /// Whether `pred` is a knowledge-graph relation (vs a scene relation).
    fn is_kg_relation(pred: &str) -> bool {
        CHARACTER_RELATIONS.iter().any(|&(_, r, _)| r == pred)
    }

    /// The labels a clause slot admits: its binding as it stands (labels
    /// propagate at category level), else its head's taxonomy closure;
    /// `None` for a wildcard.
    fn admitted<'b>(
        &self,
        bind: Option<&'b HashSet<String>>,
        head: &str,
    ) -> Option<Cow<'b, HashSet<String>>> {
        match bind {
            Some(b) => Some(Cow::Borrowed(b)),
            None if head.is_empty() => None,
            None => Some(Cow::Owned(self.closure(head))),
        }
    }

    /// Evaluate one clause: matching `(image idx, sub obj-idx, obj obj-idx)`
    /// scene triples, or pseudo-triples for KG relations (image = usize::MAX).
    /// Label pairs are also returned for binding propagation.
    fn clause_pairs(
        &self,
        clause: &ChainClause,
        sub_bind: Option<&HashSet<String>>,
        obj_bind: Option<&HashSet<String>>,
    ) -> Vec<ClausePair> {
        let sub_set = self.admitted(sub_bind, &clause.sub);
        let obj_set = self.admitted(obj_bind, &clause.obj);
        let in_set = |set: &Option<Cow<HashSet<String>>>, label: &str, category: &str| -> bool {
            match set {
                None => true,
                Some(s) => s.contains(label) || s.contains(category),
            }
        };
        if Self::is_kg_relation(&clause.pred) {
            return CHARACTER_RELATIONS
                .iter()
                .filter(|&&(s, r, o)| {
                    r == clause.pred && in_set(&sub_set, s, s) && in_set(&obj_set, o, o)
                })
                .enumerate()
                .map(|(i, &(s, _, o))| (usize::MAX, i, i, s.to_owned(), o.to_owned()))
                .collect();
        }
        let mut out = Vec::new();
        for (ii, img) in self.images.iter().enumerate() {
            for rel in &img.relations {
                // Predicate equivalence classes (on/sitting on/…) apply —
                // the same aliasing the executor's matching uses, so ground
                // truth and system semantics agree.
                if !svqa_vision::relation::predicates_aliased(&rel.pred, &clause.pred) {
                    continue;
                }
                let so = &img.objects[rel.sub];
                let oo = &img.objects[rel.obj];
                if in_set(&sub_set, so.scene_label(), &so.category)
                    && in_set(&obj_set, oo.scene_label(), &oo.category)
                {
                    out.push((
                        ii,
                        rel.sub,
                        rel.obj,
                        so.scene_label().to_owned(),
                        oo.scene_label().to_owned(),
                    ));
                }
            }
        }
        out
    }

    /// Walk a clause chain once, providers before consumers (chains are
    /// linear, highest index deepest). A "most frequently" clause keeps only
    /// its modal subject labels; each link binds its consumer slot to the
    /// provider's labels, intersected with any binding the slot already has.
    fn walk(&self, clauses: &[ChainClause], links: &[ChainLink]) -> Walk {
        let n = clauses.len();
        let mut sub_bind: Vec<Option<HashSet<String>>> = vec![None; n];
        let mut obj_bind: Vec<Option<HashSet<String>>> = vec![None; n];
        let mut all_matched = true;
        let mut tied = false;
        let mut pairs = Vec::new();
        for i in (0..n).rev() {
            pairs = self.clause_pairs(&clauses[i], sub_bind[i].as_ref(), obj_bind[i].as_ref());
            if clauses[i].most_frequent {
                // Aggregate on the provided side (subject by convention for
                // our templates).
                let ranking = ranked(&pairs, Side::Sub);
                if let Some(&(_, max)) = ranking.first() {
                    tied |= ranking.get(1).is_some_and(|&(_, c)| c == max);
                    let keep: HashSet<String> = ranking
                        .iter()
                        .take_while(|&&(_, c)| c == max)
                        .map(|&(l, _)| l.to_owned())
                        .collect();
                    pairs.retain(|p| keep.contains(&p.3));
                }
            }
            all_matched &= !pairs.is_empty();
            for link in links.iter().filter(|l| l.provider == i) {
                let labels: HashSet<String> = pairs
                    .iter()
                    .map(|p| side_label(p, link.provider_side).to_owned())
                    .collect();
                let slot = match link.consumer_side {
                    Side::Sub => &mut sub_bind[link.consumer],
                    Side::Obj => &mut obj_bind[link.consumer],
                };
                *slot = Some(match slot.take() {
                    Some(existing) => existing.intersection(&labels).cloned().collect(),
                    None => labels,
                });
            }
        }
        Walk {
            answers: pairs,
            all_matched,
            tied,
        }
    }

    /// Evaluate a clause chain. `answer_side` is the answer slot of clause
    /// 0; question type shapes the result.
    pub fn eval(
        &self,
        clauses: &[ChainClause],
        links: &[ChainLink],
        qtype: svqa_qparser::QuestionType,
        answer_side: Side,
    ) -> GtAnswer {
        let walk = self.walk(clauses, links);
        match qtype {
            svqa_qparser::QuestionType::Judgment => GtAnswer::YesNo(walk.all_matched),
            svqa_qparser::QuestionType::Counting => {
                let distinct: HashSet<(usize, usize)> = walk
                    .answers
                    .iter()
                    .map(|p| match answer_side {
                        Side::Sub => (p.0, p.1),
                        Side::Obj => (p.0, p.2),
                    })
                    .collect();
                GtAnswer::Count(distinct.len())
            }
            svqa_qparser::QuestionType::Reasoning => GtAnswer::Entity(
                ranked(&walk.answers, answer_side)
                    .first()
                    .map_or_else(String::new, |&(label, _)| label.to_owned()),
            ),
        }
    }

    /// The reasoning answer, when it is *unique with margin*: no "most
    /// frequently" constraint on the way may be tied, and the top label
    /// must beat the runner-up by at least 30% relative support. Moderately
    /// contested rankings stay in the dataset (the paper's handwritten
    /// questions are not noise-proof either) — they are where perception
    /// noise costs reasoning accuracy. When `Some`, it is what [`Self::eval`]
    /// answers for the same chain.
    pub fn stable_reasoning_answer(
        &self,
        clauses: &[ChainClause],
        links: &[ChainLink],
        answer_side: Side,
    ) -> Option<GtAnswer> {
        let walk = self.walk(clauses, links);
        if walk.tied {
            return None;
        }
        let ranking = ranked(&walk.answers, answer_side);
        let (label, top) = ranking.first().copied()?;
        let runner_up = ranking.get(1).map_or(0, |&(_, c)| c);
        (top > runner_up && top as f64 >= 1.3 * runner_up as f64)
            .then(|| GtAnswer::Entity(label.to_owned()))
    }

    /// Number of images containing at least one instance matching any of
    /// the heads involved — the "Average Images" scan-set size of Table II.
    pub fn images_involved(&self, heads: &[&str]) -> usize {
        let sets: Vec<HashSet<String>> = heads
            .iter()
            .filter(|h| !h.is_empty())
            .map(|h| self.closure(h))
            .collect();
        self.images
            .iter()
            .filter(|img| {
                img.objects.iter().any(|o| {
                    sets.iter()
                        .any(|s| s.contains(o.scene_label()) || s.contains(&o.category))
                })
            })
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kg::build_knowledge_graph;
    use crate::scenes::generate_images;
    use svqa_qparser::QuestionType;

    fn clause(sub: &str, pred: &str, obj: &str) -> ChainClause {
        ChainClause {
            sub: sub.into(),
            pred: pred.into(),
            obj: obj.into(),
            most_frequent: false,
        }
    }

    #[test]
    fn closure_includes_taxonomy_and_entities() {
        let images = generate_images(10, 1);
        let kg = build_knowledge_graph();
        let gt = GroundTruth::new(&images, &kg);
        let pets = gt.closure("pet");
        assert!(pets.contains("dog") && pets.contains("cat") && pets.contains("pet"));
        let animals = gt.closure("animal");
        assert!(animals.contains("dog") && animals.contains("bird"));
        let wizards = gt.closure("wizard");
        assert!(wizards.contains("harry potter"));
        // Unknown heads close over themselves.
        assert_eq!(gt.closure("spaceship").len(), 1);
    }

    #[test]
    fn single_clause_judgment() {
        let images = generate_images(800, 3);
        let kg = build_knowledge_graph();
        let gt = GroundTruth::new(&images, &kg);
        // Pets in vehicles exist by construction of the archetypes.
        let yes = gt.eval(
            &[clause("pet", "in", "vehicle")],
            &[],
            QuestionType::Judgment,
            Side::Sub,
        );
        assert_eq!(yes, GtAnswer::YesNo(true));
        // Elephants never ride bicycles.
        let no = gt.eval(
            &[clause("elephant", "riding", "bicycle")],
            &[],
            QuestionType::Judgment,
            Side::Sub,
        );
        assert_eq!(no, GtAnswer::YesNo(false));
    }

    #[test]
    fn chained_judgment_requires_all_clauses() {
        let images = generate_images(800, 3);
        let kg = build_knowledge_graph();
        let gt = GroundTruth::new(&images, &kg);
        let ans = gt.eval(
            &[
                clause("pet", "carrying", "bird"),
                clause("pet", "in", "vehicle"),
            ],
            &[ChainLink {
                provider: 1,
                consumer: 0,
                consumer_side: Side::Sub,
                provider_side: Side::Sub,
            }],
            QuestionType::Judgment,
            Side::Sub,
        );
        // Dogs in vehicles exist and dogs carry birds → yes.
        assert_eq!(ans, GtAnswer::YesNo(true));
    }

    #[test]
    fn example7_reasoning() {
        // "What kind of animals is carried by the pets that were situated
        // in the car?" → dog carries bird → "bird".
        let images = generate_images(1500, 3);
        let kg = build_knowledge_graph();
        let gt = GroundTruth::new(&images, &kg);
        let ans = gt.eval(
            &[
                clause("pet", "carrying", "animal"),
                clause("pet", "in", "car"),
            ],
            &[ChainLink {
                provider: 1,
                consumer: 0,
                consumer_side: Side::Sub,
                provider_side: Side::Sub,
            }],
            QuestionType::Reasoning,
            Side::Obj,
        );
        assert_eq!(ans, GtAnswer::Entity("bird".into()));
    }

    #[test]
    fn counting_counts_distinct_instances() {
        let images = generate_images(300, 5);
        let kg = build_knowledge_graph();
        let gt = GroundTruth::new(&images, &kg);
        let GtAnswer::Count(n) = gt.eval(
            &[clause("pet", "in", "vehicle")],
            &[],
            QuestionType::Counting,
            Side::Sub,
        ) else {
            panic!()
        };
        // Direct recount.
        let manual: usize = images
            .iter()
            .map(|img| {
                img.relations
                    .iter()
                    .filter(|r| {
                        r.pred == "in"
                            && matches!(img.objects[r.sub].category.as_str(), "dog" | "cat")
                            && matches!(
                                img.objects[r.obj].category.as_str(),
                                "car"
                                    | "bus"
                                    | "truck"
                                    | "motorcycle"
                                    | "bicycle"
                                    | "train"
                                    | "boat"
                                    | "airplane"
                            )
                    })
                    .count()
            })
            .sum();
        assert_eq!(n, manual);
        assert!(n > 0);
    }

    #[test]
    fn kg_relation_clauses() {
        let images = generate_images(10, 1);
        let kg = build_knowledge_graph();
        let gt = GroundTruth::new(&images, &kg);
        let ans = gt.eval(
            &[clause("", "girlfriend of", "harry potter")],
            &[],
            QuestionType::Counting,
            Side::Sub,
        );
        assert_eq!(ans, GtAnswer::Count(2)); // ginny + cho
    }

    #[test]
    fn most_frequent_constraint_selects_modal_subject() {
        let images = generate_images(3000, 5);
        let kg = build_knowledge_graph();
        let gt = GroundTruth::new(&images, &kg);
        // Who most frequently hangs out near ginny weasley? The ring
        // pairing makes harry potter (her predecessor) the modal companion.
        let ans = gt.eval(
            &[ChainClause {
                sub: "wizard".into(),
                pred: "near".into(),
                obj: "ginny weasley".into(),
                most_frequent: true,
            }],
            &[],
            QuestionType::Reasoning,
            Side::Sub,
        );
        assert_eq!(ans, GtAnswer::Entity("harry potter".into()));
    }

    /// One two-object image per `(sub, pred, obj)` triple.
    fn scenes(triples: &[(&str, &str, &str)]) -> Vec<SyntheticImage> {
        let object = |category: &str| svqa_vision::scene::SceneObject {
            category: category.into(),
            bbox: svqa_vision::BBox::new(0.0, 0.0, 0.1, 0.1),
            depth: 0.5,
            entity: None,
            attributes: Vec::new(),
        };
        triples
            .iter()
            .zip(0..)
            .map(|(&(s, p, o), id)| SyntheticImage {
                id,
                objects: vec![object(s), object(o)],
                relations: vec![svqa_vision::scene::GroundTruthRelation {
                    sub: 0,
                    pred: p.into(),
                    obj: 1,
                    emergent: false,
                }],
                caption: String::new(),
            })
            .collect()
    }

    /// `dogs` dogs and `cats` cats near a car.
    fn pets_near_car(dogs: usize, cats: usize) -> Vec<(&'static str, &'static str, &'static str)> {
        let mut triples = vec![("dog", "near", "car"); dogs];
        triples.extend(vec![("cat", "near", "car"); cats]);
        triples
    }

    fn is_stable(images: &[SyntheticImage], clauses: &[ChainClause], links: &[ChainLink]) -> bool {
        let kg = build_knowledge_graph();
        GroundTruth::new(images, &kg)
            .stable_reasoning_answer(clauses, links, Side::Sub)
            .is_some()
    }

    #[test]
    fn tied_most_frequent_constraint_is_unstable() {
        let images = scenes(&pets_near_car(2, 2));
        let most_frequent = ChainClause {
            most_frequent: true,
            ..clause("pet", "near", "car")
        };
        assert!(!is_stable(&images, &[most_frequent], &[]));
    }

    #[test]
    fn top_label_without_margin_is_unstable() {
        // 5 dogs against 4 cats: the top label is below 1.3× the runner-up.
        let images = scenes(&pets_near_car(5, 4));
        assert!(!is_stable(&images, &[clause("pet", "near", "car")], &[]));
    }

    #[test]
    fn clear_winner_is_stable() {
        let images = scenes(&pets_near_car(5, 2));
        assert!(is_stable(&images, &[clause("pet", "near", "car")], &[]));
    }

    #[test]
    fn stability_intersects_links_sharing_a_slot() {
        // Dogs and cats are near cars equally often, but only the dog both
        // holds a ball and watches the tv: the two links into clause 0's
        // subject intersect to {dog}, so the answer is unique.
        let mut triples = pets_near_car(3, 3);
        triples.extend([
            ("dog", "holding", "ball"),
            ("cat", "holding", "ball"),
            ("dog", "watching", "tv"),
        ]);
        let images = scenes(&triples);
        let feed = |provider| ChainLink {
            provider,
            consumer: 0,
            consumer_side: Side::Sub,
            provider_side: Side::Sub,
        };
        let clauses = [
            clause("pet", "near", "car"),
            clause("pet", "holding", "ball"),
            clause("pet", "watching", "tv"),
        ];
        let links = [feed(1), feed(2)];
        let kg = build_knowledge_graph();
        let gt = GroundTruth::new(&images, &kg);
        let dog = GtAnswer::Entity("dog".into());
        assert_eq!(
            gt.stable_reasoning_answer(&clauses, &links, Side::Sub),
            Some(dog.clone())
        );
        assert_eq!(
            gt.eval(&clauses, &links, QuestionType::Reasoning, Side::Sub),
            dog
        );
    }

    #[test]
    fn images_involved_counts_scan_set() {
        let images = generate_images(500, 9);
        let kg = build_knowledge_graph();
        let gt = GroundTruth::new(&images, &kg);
        let people = gt.images_involved(&["person"]);
        let elephants = gt.images_involved(&["elephant"]);
        assert!(people > elephants);
        assert!(people <= 500);
        assert_eq!(gt.images_involved(&[]), 0);
    }
}
