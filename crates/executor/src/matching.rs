//! `matchVertex` and `getRelationpairs` (Algorithm 3, lines 21–26).
//!
//! `matchVertex` "uses the Levenshtein Distance to find `v ∈ V_mg` whose
//! distance is less than the empirical threshold"; for non-simple nouns it
//! falls back to the main noun and, failing that, cosine similarity of
//! embeddings. That label ladder is [`svqa_nlp::resolve`], the one the
//! linter predicts with; this module turns its labels into the in-scope
//! vertices carrying them. Matched vertices are then *semantically
//! expanded*: following the aggregator's `same as` link edges (scene
//! instance ↔ knowledge entity) and incoming taxonomy (`is a`) edges, so
//! that a query about "pets" reaches the scene-graph `dog` vertices through
//! the knowledge graph — the cross-source reasoning step the paper's
//! Example 1 builds on.

use std::ops::Range;
use svqa_graph::{Edge, EdgeId, Graph, LabelId, VertexId};
use svqa_nlp::resolve::{resolve, LabelCounts};

pub use svqa_graph::{IS_A, SAME_AS};
pub use svqa_nlp::resolve::MatchMethod;

/// A relation pair `(Sub, e, Obj)` — one element of `RP` — held as its
/// edge: 4 bytes, since the edge arena already stores both endpoints, and
/// [`ends`](Self::ends) reads them from the graph the pair was scanned
/// from. The top bit of the word marks a [`reversed`](Self::reversed)
/// pair, whose subject is the edge's destination and whose object is its
/// source.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RelationPair(u32);

impl RelationPair {
    /// The bit marking a reversed pair.
    const REVERSED: u32 = 1 << 31;

    /// The pair `(src(e), e, dst(e))`.
    ///
    /// # Panics
    ///
    /// If the edge index needs the reserved top bit, which takes an edge
    /// arena of more than 2^31 edges (24 GiB of 12-byte edges).
    pub fn new(edge: EdgeId) -> Self {
        let index = edge.index();
        assert!(
            index < Self::REVERSED as usize,
            "edge index {index} needs the relation pair's reserved bit"
        );
        RelationPair(index as u32)
    }

    /// The connecting edge.
    pub fn edge(self) -> EdgeId {
        EdgeId::from_index((self.0 & !Self::REVERSED) as usize)
    }

    /// The same edge with subject and object swapped.
    pub fn reversed(self) -> Self {
        RelationPair(self.0 ^ Self::REVERSED)
    }

    /// `(subject, object)`: the edge's endpoints in `graph`, swapped if
    /// the pair is reversed.
    pub fn ends(self, graph: &Graph) -> (VertexId, VertexId) {
        let e = graph.edge(self.edge()).expect("pairs hold graph edges");
        if self.0 & Self::REVERSED == 0 {
            (e.src(), e.dst())
        } else {
            (e.dst(), e.src())
        }
    }

    /// Subject-side vertex.
    pub fn subject(self, graph: &Graph) -> VertexId {
        self.ends(graph).0
    }

    /// Object-side vertex.
    pub fn object(self, graph: &Graph) -> VertexId {
        self.ends(graph).1
    }
}

/// Vertex matching over the merged graph, confined to a range of vertex
/// indices: all of `G_mg`, or one source's part of it when the other
/// source is down (Algorithm 1 absorbs the knowledge graph first, so its
/// vertices are a prefix of the ids).
pub struct VertexMatcher<'g> {
    graph: &'g Graph,
    scope: Range<usize>,
    /// The graph's ids of [`SAME_AS`] and [`IS_A`] (`None` when no edge
    /// carries the label), so a structural-edge test is an integer compare.
    same_as: Option<LabelId>,
    is_a: Option<LabelId>,
}

impl<'g> VertexMatcher<'g> {
    /// Build a matcher over all of `graph`.
    pub fn new(graph: &'g Graph) -> Self {
        VertexMatcher {
            graph,
            scope: 0..graph.vertex_count(),
            same_as: graph.edge_label_id(SAME_AS),
            is_a: graph.edge_label_id(IS_A),
        }
    }

    /// Whether `e` is a `same as` link.
    fn is_same_as(&self, e: &Edge) -> bool {
        Some(e.label_id()) == self.same_as
    }

    /// Whether `e` is a structural `same as` or `is a` edge rather than a
    /// relation.
    fn is_structural(&self, e: &Edge) -> bool {
        self.is_same_as(e) || Some(e.label_id()) == self.is_a
    }

    /// Confine every match and scan to the vertices whose index lies in
    /// `scope`: each call answers as it would over the subgraph those
    /// vertices induce.
    pub fn with_scope(mut self, scope: Range<usize>) -> Self {
        self.scope = scope;
        self
    }

    /// Whether `v` lies in the scope (one compare: an index below the
    /// scope's start wraps to a huge offset).
    fn in_scope(&self, v: VertexId) -> bool {
        v.index().wrapping_sub(self.scope.start) < self.scope.len()
    }

    /// The in-scope vertices carrying `label`. The label index lists ids in
    /// ascending order, so they are one subslice of it.
    fn with_label(&self, label: &str) -> &'g [VertexId] {
        let ids = self.graph.vertices_with_label(label);
        let start = ids.partition_point(|v| v.index() < self.scope.start);
        let end = ids.partition_point(|v| v.index() < self.scope.end);
        &ids[start..end]
    }

    /// `matchVertex(label, G_mg)`: the in-scope vertices whose label the
    /// phrase resolves to on the §V-A ladder (see
    /// [`svqa_nlp::resolve::resolve`]), and which rung matched.
    pub fn match_vertex(&self, phrase: &str, head: &str) -> (Vec<VertexId>, MatchMethod) {
        let resolution = resolve(phrase, head, self);
        let found = resolution
            .labels
            .iter()
            .flat_map(|&(label, _)| self.with_label(label))
            .copied()
            .collect();
        (found, resolution.rung)
    }

    /// Semantic expansion: close the set under `same as` links (both
    /// directions) and *incoming* `is a` edges (instances and subtypes of a
    /// matched concept are also matches), within the scope. Seeds outside
    /// the scope are dropped. The visited set is one bit per in-scope
    /// vertex, so reading its set bits in order gives the sorted output.
    pub fn expand_semantic(&self, seed: &[VertexId]) -> Vec<VertexId> {
        let start = self.scope.start;
        let mut seen = vec![0u64; self.scope.len().div_ceil(64)];
        let mut found = 0usize;
        let mut visit = |v: VertexId| {
            let i = v.index() - start;
            let (word, bit) = (i / 64, 1u64 << (i % 64));
            let fresh = seen[word] & bit == 0;
            seen[word] |= bit;
            found += usize::from(fresh);
            fresh
        };
        let seed = seed.iter().copied().filter(|&v| self.in_scope(v));
        let mut stack: Vec<VertexId> = seed.filter(|&v| visit(v)).collect();
        while let Some(v) = stack.pop() {
            for (_, e) in self.graph.out_edges(v) {
                if self.in_scope(e.dst()) && self.is_same_as(e) && visit(e.dst()) {
                    stack.push(e.dst());
                }
            }
            for (_, e) in self.graph.in_edges(v) {
                if self.in_scope(e.src()) && self.is_structural(e) && visit(e.src()) {
                    stack.push(e.src());
                }
            }
        }
        let mut out = Vec::with_capacity(found);
        for (word, mut bits) in seen.into_iter().enumerate() {
            while bits != 0 {
                let index = start + word * 64 + bits.trailing_zeros() as usize;
                out.push(VertexId::from_index(index));
                bits &= bits - 1;
            }
        }
        out
    }

    /// `getRelations(Sub, Obj)`: the edges from any subject-side vertex to
    /// any object-side vertex (excluding structural `same as`/`is a` links),
    /// as relation pairs, plus the number of candidate edges examined (the
    /// profiling "edges scanned" figure). `objs` must be ascending and
    /// free of duplicates, as [`expand_semantic`](Self::expand_semantic)
    /// returns it: the scan binary-searches it as given.
    pub fn relations_between(
        &self,
        subs: &[VertexId],
        objs: &[VertexId],
    ) -> (Vec<RelationPair>, usize) {
        debug_assert!(
            objs.windows(2).all(|w| w[0] < w[1]),
            "the object scope must be ascending and unique"
        );
        self.scan(subs, true, |obj| objs.binary_search(&obj).is_ok())
    }

    /// Relation pairs when one side is a wildcard: every non-structural
    /// edge incident to the constrained side, plus the number of incident
    /// edges examined.
    pub fn relations_around(
        &self,
        anchors: &[VertexId],
        anchor_is_subject: bool,
    ) -> (Vec<RelationPair>, usize) {
        self.scan(anchors, anchor_is_subject, |_| true)
    }

    /// The relation scan behind both shapes: the out-edges (subject
    /// anchors) or in-edges (object anchors) of every anchor. An edge whose
    /// far end leaves the scope is skipped before it is counted; the rest
    /// are counted, and become pairs unless structural or refused by
    /// `keep_far`.
    fn scan(
        &self,
        anchors: &[VertexId],
        anchor_is_subject: bool,
        keep_far: impl Fn(VertexId) -> bool,
    ) -> (Vec<RelationPair>, usize) {
        let mut pairs = Vec::new();
        let mut scanned = 0usize;
        for &a in anchors {
            let incident = if anchor_is_subject {
                self.graph.out_edge_ids(a)
            } else {
                self.graph.in_edge_ids(a)
            };
            for &edge in incident {
                let e = self
                    .graph
                    .edge(edge)
                    .expect("adjacency indexes hold graph edges");
                let far = if anchor_is_subject { e.dst() } else { e.src() };
                if !self.in_scope(far) {
                    continue;
                }
                scanned += 1;
                if !self.is_structural(e) && keep_far(far) {
                    pairs.push(RelationPair::new(edge));
                }
            }
        }
        (pairs, scanned)
    }
}

/// The merged graph's vertex labels, counted within the scope.
impl LabelCounts for VertexMatcher<'_> {
    fn labels(&self) -> impl Iterator<Item = &str> {
        self.graph.vertex_label_counts().map(|(label, _)| label)
    }

    fn count(&self, label: &str) -> usize {
        self.with_label(label).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use svqa_graph::GraphBuilder;

    /// A miniature merged graph: KG taxonomy + one scene.
    fn merged() -> Graph {
        let mut b = GraphBuilder::new();
        // Knowledge graph.
        b.triple("dog", "is a", "pet")
            .triple("cat", "is a", "pet")
            .triple("pet", "is a", "animal")
            .triple("ginny weasley", "girlfriend of", "harry potter");
        let mut g = b.build();
        // Scene instances (duplicate labels are distinct vertices).
        let scene_dog = g.add_vertex("dog");
        let scene_car = g.add_vertex("car");
        g.add_edge(scene_dog, scene_car, "in").unwrap();
        // Aggregator links.
        let kg_dog = g.vertices_with_label("dog")[0];
        g.add_edge(scene_dog, kg_dog, SAME_AS).unwrap();
        g.add_edge(kg_dog, scene_dog, SAME_AS).unwrap();
        g
    }

    #[test]
    fn exact_match() {
        let g = merged();
        let m = VertexMatcher::new(&g);
        let (found, _) = m.match_vertex("dog", "dog");
        assert_eq!(found.len(), 2); // KG dog + scene dog
    }

    #[test]
    fn levenshtein_tolerates_typos_and_inflection() {
        let g = merged();
        let m = VertexMatcher::new(&g);
        // "dogs" normalizes to "dog" upstream, but even the raw plural
        // passes the Levenshtein threshold (sim 0.75 < 0.8? "dogs"/"dog" =
        // 1 edit over 4 chars = 0.75) — it instead hits the embedding
        // fallback, which maps synonyms too.
        let (found, _) = m.match_vertex("puppy", "puppy");
        assert!(!found.is_empty(), "puppy should reach dog via embeddings");
        assert!(found.iter().all(|&v| g.vertex_label(v) == Some("dog")));
    }

    /// Regression for the NaN-unsafe, tie-unstable embedding sort: two
    /// distinct labels that embed identically ("Puppy" vs "puppy" — the
    /// embedder lowercases) tie exactly on similarity, and the order used
    /// to leak `HashMap` iteration order, which varies per `Graph`
    /// instance. With `total_cmp` + label tie-break the candidate order is
    /// identical across rebuilds.
    #[test]
    fn embedding_fallback_is_deterministic_on_ties() {
        let build = || {
            let mut g = Graph::default();
            // Force the embedding rung: nothing matches "hound" exactly or
            // within the Levenshtein threshold, but both labels live in the
            // "dog" concept cluster.
            for label in ["Puppy", "puppy", "canine", "kitten"] {
                g.add_vertex(label);
            }
            g
        };
        let mut orders: Vec<Vec<String>> = Vec::new();
        for _ in 0..8 {
            let g = build();
            let m = VertexMatcher::new(&g);
            let (found, method) = m.match_vertex("hound", "hound");
            assert_eq!(method, MatchMethod::Embedding);
            assert!(found.len() >= 2, "both puppy spellings should match");
            orders.push(
                found
                    .iter()
                    .map(|&v| g.vertex_label(v).unwrap().to_owned())
                    .collect(),
            );
        }
        for order in &orders[1..] {
            assert_eq!(order, &orders[0], "candidate order must not vary");
        }
    }

    #[test]
    fn main_noun_retry() {
        let g = merged();
        let m = VertexMatcher::new(&g);
        let (found, _) = m.match_vertex("kind of dog", "dog");
        assert_eq!(found.len(), 2);
    }

    #[test]
    fn no_match_is_empty() {
        let g = merged();
        let m = VertexMatcher::new(&g);
        assert!(m.match_vertex("spaceship", "spaceship").0.is_empty());
    }

    #[test]
    fn expansion_reaches_instances_through_taxonomy() {
        let g = merged();
        let m = VertexMatcher::new(&g);
        // "pet" → KG pet → (incoming is-a) dog, cat → (same as) scene dog.
        let (seed, _) = m.match_vertex("pet", "pet");
        let expanded = m.expand_semantic(&seed);
        let labels: Vec<_> = expanded
            .iter()
            .map(|&v| g.vertex_label(v).unwrap())
            .collect();
        assert!(labels.contains(&"dog"));
        assert!(labels.contains(&"cat"));
        // Both dog vertices (KG + scene) present.
        assert_eq!(labels.iter().filter(|&&l| l == "dog").count(), 2);
    }

    #[test]
    fn a_relation_pair_is_one_word() {
        assert_eq!(std::mem::size_of::<RelationPair>(), 4);
    }

    #[test]
    fn a_pair_reads_its_ends_from_the_edge() {
        let g = merged();
        let (id, e) = g.edges().next().unwrap();
        let pair = RelationPair::new(id);
        assert_eq!(pair.edge(), id);
        assert_eq!(pair.ends(&g), (e.src(), e.dst()));
        let reversed = pair.reversed();
        assert_eq!(reversed.edge(), id);
        assert_eq!(reversed.ends(&g), (e.dst(), e.src()));
        assert_eq!(reversed.subject(&g), e.dst());
        assert_eq!(reversed.object(&g), e.src());
        assert_eq!(reversed.reversed(), pair);
    }

    #[test]
    #[should_panic(expected = "reserved bit")]
    fn the_constructor_refuses_an_edge_index_with_the_reserved_bit() {
        RelationPair::new(EdgeId::from_index(1 << 31));
    }

    #[test]
    fn relations_between_skips_structural_edges() {
        let g = merged();
        let m = VertexMatcher::new(&g);
        let dogs = m.expand_semantic(&m.match_vertex("pet", "pet").0);
        let (cars, _) = m.match_vertex("car", "car");
        let (pairs, _) = m.relations_between(&dogs, &cars);
        assert_eq!(pairs.len(), 1);
        assert_eq!(g.edge_label(pairs[0].edge()), Some("in"));
    }

    #[test]
    fn wildcard_object_side() {
        let g = merged();
        let m = VertexMatcher::new(&g);
        let (harry, _) = m.match_vertex("harry potter", "harry potter");
        let (pairs, _) = m.relations_around(&harry, false);
        assert_eq!(pairs.len(), 1);
        assert_eq!(g.edge_label(pairs[0].edge()), Some("girlfriend of"));
        assert_eq!(g.vertex_label(pairs[0].subject(&g)), Some("ginny weasley"));
    }

    #[test]
    fn wildcard_subject_side() {
        let g = merged();
        let m = VertexMatcher::new(&g);
        let scene_dog = vec![g.vertices_with_label("dog")[1]];
        let (pairs, _) = m.relations_around(&scene_dog, true);
        assert_eq!(pairs.len(), 1);
        assert_eq!(g.vertex_label(pairs[0].object(&g)), Some("car"));
    }

    #[test]
    fn traced_matching_reports_the_ladder_rung() {
        let g = merged();
        let m = VertexMatcher::new(&g);
        assert_eq!(m.match_vertex("dog", "dog").1, MatchMethod::Exact);
        assert_eq!(
            m.match_vertex("kind of dog", "dog").1,
            MatchMethod::HeadExact
        );
        assert_eq!(m.match_vertex("puppy", "puppy").1, MatchMethod::Embedding);
        let (found, method) = m.match_vertex("spaceship", "spaceship");
        assert!(found.is_empty());
        assert_eq!(method, MatchMethod::NoMatch);
    }

    #[test]
    fn counted_scans_cover_all_incident_edges() {
        let g = merged();
        let m = VertexMatcher::new(&g);
        let dogs = m.expand_semantic(&m.match_vertex("pet", "pet").0);
        let (cars, _) = m.match_vertex("car", "car");
        let (pairs, scanned) = m.relations_between(&dogs, &cars);
        assert_eq!(pairs.len(), 1);
        // Structural (same as / is a) edges are scanned even though they
        // never become pairs, so scanned strictly exceeds the pair count.
        assert!(scanned > pairs.len(), "scanned={scanned}");

        let scene_dog = vec![g.vertices_with_label("dog")[1]];
        let (pairs, scanned) = m.relations_around(&scene_dog, true);
        assert_eq!(pairs.len(), 1);
        assert!(scanned >= pairs.len());
    }

    #[test]
    fn expansion_is_idempotent() {
        let g = merged();
        let m = VertexMatcher::new(&g);
        let once = m.expand_semantic(&m.match_vertex("pet", "pet").0);
        let twice = m.expand_semantic(&once);
        assert_eq!(once, twice);
    }

    /// The merged graph with its KG range (vertices before the first
    /// scene vertex) and its two scene vertices.
    fn scoped_world() -> (Graph, usize, VertexId, VertexId) {
        let g = merged();
        let scene_dog = g.vertices_with_label("dog")[1];
        let scene_car = g.vertices_with_label("car")[0];
        (g, scene_dog.index(), scene_dog, scene_car)
    }

    #[test]
    fn kg_scope_matches_only_knowledge_vertices() {
        let (g, kg, _, _) = scoped_world();
        let m = VertexMatcher::new(&g).with_scope(0..kg);
        let (found, method) = m.match_vertex("dog", "dog");
        assert_eq!(found, vec![g.vertices_with_label("dog")[0]]);
        assert_eq!(method, MatchMethod::Exact);
        assert!(m.match_vertex("car", "car").0.is_empty());
    }

    #[test]
    fn scene_scope_expansion_stays_out_of_the_kg() {
        let (g, kg, scene_dog, _) = scoped_world();
        let full = VertexMatcher::new(&g);
        assert_eq!(full.expand_semantic(&[scene_dog]).len(), 2);
        let scene = VertexMatcher::new(&g).with_scope(kg..g.vertex_count());
        assert_eq!(scene.expand_semantic(&[scene_dog]), vec![scene_dog]);
    }

    #[test]
    fn scoped_scans_neither_return_nor_count_edges_leaving_the_scope() {
        let (g, _, scene_dog, scene_car) = scoped_world();
        let full = VertexMatcher::new(&g);
        // Everything but the scene car: the `in` edge leaves the scope.
        let scoped = VertexMatcher::new(&g).with_scope(0..scene_car.index());
        let dogs = full.expand_semantic(&full.match_vertex("dog", "dog").0);
        assert_eq!(
            scoped.expand_semantic(&scoped.match_vertex("dog", "dog").0),
            dogs
        );

        let (pairs, scanned) = full.relations_between(&dogs, &[scene_car]);
        assert_eq!(pairs.len(), 1);
        let (scoped_pairs, scoped_scanned) = scoped.relations_between(&dogs, &[scene_car]);
        assert!(scoped_pairs.is_empty());
        assert_eq!(scoped_scanned, scanned - 1);

        let (pairs, scanned) = full.relations_around(&[scene_dog], true);
        assert_eq!(pairs.len(), 1);
        let (scoped_pairs, scoped_scanned) = scoped.relations_around(&[scene_dog], true);
        assert!(scoped_pairs.is_empty());
        assert_eq!(scoped_scanned, scanned - 1);
    }
}
