//! The query graph `G_q` (Definition 3).

use crate::spoc::Spoc;
use serde::{Deserialize, Serialize};

/// The five dependency kinds of §IV-C (NULL = no edge). Naming follows
/// Algorithm 3's replacement table: `X2Y` means the *consumer's* slot `X`
/// is replaced by the *provider's* answer side `Y`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Dependency {
    /// Consumer subject ← provider subject answers.
    S2S,
    /// Consumer subject ← provider object answers.
    S2O,
    /// Consumer object ← provider subject answers.
    O2S,
    /// Consumer object ← provider object answers.
    O2O,
}

impl Dependency {
    /// The label as printed in the paper.
    pub fn as_str(self) -> &'static str {
        match self {
            Dependency::S2S => "S2S",
            Dependency::S2O => "S2O",
            Dependency::O2S => "O2S",
            Dependency::O2O => "O2O",
        }
    }
}

/// The three question types of §V / §VI ("counting, reasoning, and judgment
/// questions following [OK-VQA]").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum QuestionType {
    /// Yes/no answer.
    Judgment,
    /// Numeric answer.
    Counting,
    /// Entity answer.
    Reasoning,
}

impl QuestionType {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            QuestionType::Judgment => "Judgment",
            QuestionType::Counting => "Counting",
            QuestionType::Reasoning => "Reasoning",
        }
    }
}

/// A directed dependency edge `provider → consumer`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct QueryEdge {
    /// Vertex whose answers flow out (executed first).
    pub provider: usize,
    /// Vertex that consumes the answers.
    pub consumer: usize,
    /// Which slots are connected.
    pub dependency: Dependency,
}

/// The query graph: SPOC vertices plus dependency edges. Vertices are
/// stored in clause discovery order; execution order is derived from the
/// edges (providers first).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueryGraph {
    /// SPOC vertices.
    pub vertices: Vec<Spoc>,
    /// Dependency edges.
    pub edges: Vec<QueryEdge>,
    /// Question type.
    pub question_type: QuestionType,
    /// The original question text.
    pub question: String,
}

impl QueryGraph {
    /// Number of vertices (clauses).
    pub fn len(&self) -> usize {
        self.vertices.len()
    }

    /// Whether the graph has no vertices.
    pub fn is_empty(&self) -> bool {
        self.vertices.is_empty()
    }

    /// Out-edges of a vertex.
    pub fn out_edges(&self, v: usize) -> impl Iterator<Item = &QueryEdge> {
        self.edges.iter().filter(move |e| e.provider == v)
    }

    /// In-edges of a vertex.
    pub fn in_edges(&self, v: usize) -> impl Iterator<Item = &QueryEdge> {
        self.edges.iter().filter(move |e| e.consumer == v)
    }

    /// Topological execution order (providers before consumers). Returns
    /// `None` if the dependency edges form a cycle (cannot happen for
    /// generator-produced graphs; guarded for hand-built ones).
    pub fn execution_order(&self) -> Option<Vec<usize>> {
        let n = self.len();
        let mut indegree = vec![0usize; n];
        for e in &self.edges {
            indegree[e.consumer] += 1;
        }
        let mut queue: Vec<usize> = (0..n).filter(|&v| indegree[v] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(v) = queue.pop() {
            order.push(v);
            for e in self.out_edges(v) {
                indegree[e.consumer] -= 1;
                if indegree[e.consumer] == 0 {
                    queue.push(e.consumer);
                }
            }
        }
        (order.len() == n).then_some(order)
    }

    /// The vertex carrying the answer variable: the one with an
    /// `answer_role`, defaulting to the last vertex in execution order.
    pub fn answer_vertex(&self) -> usize {
        (0..self.len())
            .find(|&v| self.vertices[v].answer_role.is_some())
            .or_else(|| self.execution_order().and_then(|o| o.last().copied()))
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spoc::NounPhrase;

    fn spoc(s: &str, p: &str, o: &str) -> Spoc {
        Spoc {
            subject: NounPhrase::simple(s),
            predicate: p.to_owned(),
            object: NounPhrase::simple(o),
            ..Spoc::default()
        }
    }

    fn two_vertex_graph() -> QueryGraph {
        QueryGraph {
            vertices: vec![
                spoc("wizard", "hang out", "girlfriend"),
                spoc("wizard", "wear", "clothes"),
            ],
            edges: vec![QueryEdge {
                provider: 0,
                consumer: 1,
                dependency: Dependency::S2S,
            }],
            question_type: QuestionType::Reasoning,
            question: "test".into(),
        }
    }

    #[test]
    fn start_vertices_have_no_in_edges() {
        // Algorithm 3 starts at the vertices with in-degree 0.
        let g = two_vertex_graph();
        let start = g.execution_order().unwrap()[0];
        assert_eq!(start, 0);
        assert!(g.edges.iter().all(|e| e.consumer != start));
    }

    #[test]
    fn execution_order_respects_dependencies() {
        let g = two_vertex_graph();
        assert_eq!(g.execution_order(), Some(vec![0, 1]));
    }

    #[test]
    fn cycle_detected() {
        let mut g = two_vertex_graph();
        g.edges.push(QueryEdge {
            provider: 1,
            consumer: 0,
            dependency: Dependency::O2O,
        });
        assert_eq!(g.execution_order(), None);
    }

    #[test]
    fn answer_vertex_prefers_marked_vertex() {
        let mut g = two_vertex_graph();
        g.vertices[1].answer_role = Some(crate::spoc::AnswerRole::Object);
        assert_eq!(g.answer_vertex(), 1);
    }

    #[test]
    fn answer_vertex_defaults_to_last_in_order() {
        let g = two_vertex_graph();
        assert_eq!(g.answer_vertex(), 1);
    }

    #[test]
    fn dependency_labels() {
        assert_eq!(Dependency::S2S.as_str(), "S2S");
        assert_eq!(Dependency::O2S.as_str(), "O2S");
        assert_eq!(QuestionType::Counting.name(), "Counting");
    }

    #[test]
    fn three_level_chain_orders_inner_first() {
        let g = QueryGraph {
            vertices: vec![
                spoc("a", "p", "b"),
                spoc("b", "q", "c"),
                spoc("c", "r", "d"),
            ],
            edges: vec![
                QueryEdge { provider: 2, consumer: 1, dependency: Dependency::O2S },
                QueryEdge { provider: 1, consumer: 0, dependency: Dependency::O2S },
            ],
            question_type: QuestionType::Reasoning,
            question: "chain".into(),
        };
        let order = g.execution_order().unwrap();
        assert!(order.iter().position(|&v| v == 2) < order.iter().position(|&v| v == 1));
        assert!(order.iter().position(|&v| v == 1) < order.iter().position(|&v| v == 0));
    }
}
