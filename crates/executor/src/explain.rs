//! Answer provenance.
//!
//! A cross-source answer is only as trustworthy as its evidence. This
//! module renders the answer vertex's accepted relation pairs (`AP`) into
//! human-readable *support facts* — which images (or knowledge-graph
//! entries) back the answer, through which matched triple. The paper's
//! Example 5 walks exactly this evidence chain by hand; here it is a
//! first-class API (`Execution::explanation`, built from a run's `AP`s only
//! when asked).

use crate::matching::RelationPair;
use serde::{Deserialize, Serialize};
use svqa_graph::{scene_image, Graph};

/// One piece of supporting evidence behind an answer.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct SupportFact {
    /// Image id when the fact is visual evidence; `None` for
    /// knowledge-graph facts.
    pub image: Option<u32>,
    /// Subject label.
    pub subject: String,
    /// Matched edge label.
    pub predicate: String,
    /// Object label.
    pub object: String,
}

impl SupportFact {
    /// Render like the paper's triple notation.
    pub fn display(&self) -> String {
        match self.image {
            Some(img) => format!(
                "{{{}, {}, {}}} @ image {}",
                self.subject, self.predicate, self.object, img
            ),
            None => format!(
                "{{{}, {}, {}}} @ knowledge graph",
                self.subject, self.predicate, self.object
            ),
        }
    }
}

/// The full explanation of an answer: per-clause support facts, clause 0
/// (the answer clause) first.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Explanation {
    /// Per-query-graph-vertex supporting facts.
    pub per_vertex: Vec<Vec<SupportFact>>,
}

impl Explanation {
    /// Build from the executor's accepted pairs.
    pub(crate) fn from_aps(graph: &Graph, aps: &[Vec<RelationPair>]) -> Self {
        let image = |v| scene_image(graph, v);
        let per_vertex = aps
            .iter()
            .map(|ap| {
                let mut facts: Vec<SupportFact> = ap
                    .iter()
                    .map(|p| {
                        let (sub, obj) = p.ends(graph);
                        SupportFact {
                            image: image(sub).or_else(|| image(obj)),
                            subject: graph.vertex_label(sub).unwrap_or("?").to_owned(),
                            predicate: graph.edge_label(p.edge()).unwrap_or("?").to_owned(),
                            object: graph.vertex_label(obj).unwrap_or("?").to_owned(),
                        }
                    })
                    .collect();
                facts.sort();
                facts.dedup();
                facts
            })
            .collect();
        Explanation { per_vertex }
    }

    /// Facts supporting the final answer (vertex 0 by query-graph
    /// convention; falls back to the first non-empty vertex).
    pub fn answer_support(&self) -> &[SupportFact] {
        self.per_vertex
            .first()
            .filter(|f| !f.is_empty())
            .or_else(|| self.per_vertex.iter().find(|f| !f.is_empty()))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheStats;
    use crate::executor::QueryGraphExecutor;
    use svqa_qparser::QueryGraphGenerator;

    fn world() -> Graph {
        let mut g = Graph::new();
        let kg_dog = g.add_vertex("dog");
        let scene_dog = g.add_scene_vertex("dog", 7);
        let car = g.add_scene_vertex("car", 7);
        g.add_edge(scene_dog, car, "in").unwrap();
        g.add_edge(scene_dog, kg_dog, "same as").unwrap();
        g.add_edge(kg_dog, scene_dog, "same as").unwrap();
        g
    }

    #[test]
    fn explanation_cites_the_supporting_image() {
        let g = world();
        let gq = QueryGraphGenerator::new()
            .generate("Does the dog appear in the car?")
            .unwrap();
        let run = QueryGraphExecutor::new(&g)
            .run(&gq, None, &mut CacheStats::new())
            .unwrap();
        let explanation = run.explanation(&g);
        assert_eq!(run.answer, crate::Answer::Judgment(true));
        let cited: Vec<_> = explanation
            .per_vertex
            .iter()
            .flatten()
            .map(|f| f.image)
            .collect();
        assert_eq!(cited, vec![Some(7)]);
        let support = explanation.answer_support();
        assert_eq!(support.len(), 1);
        assert_eq!(support[0].predicate, "in");
        assert!(support[0].display().contains("image 7"));
    }

    #[test]
    fn negative_answers_have_no_support() {
        let g = world();
        let gq = QueryGraphGenerator::new()
            .generate("Does the cat appear in the car?")
            .unwrap();
        let run = QueryGraphExecutor::new(&g)
            .run(&gq, None, &mut CacheStats::new())
            .unwrap();
        let explanation = run.explanation(&g);
        assert_eq!(run.answer, crate::Answer::Judgment(false));
        assert!(explanation.per_vertex.iter().all(Vec::is_empty));
        assert!(explanation.answer_support().is_empty());
    }

    #[test]
    fn kg_facts_have_no_image() {
        let fact = SupportFact {
            image: None,
            subject: "ginny weasley".into(),
            predicate: "girlfriend of".into(),
            object: "harry potter".into(),
        };
        assert!(fact.display().contains("knowledge graph"));
    }
}
