//! The external knowledge graph `G`.
//!
//! Two layers:
//! * a **taxonomy** over the scene categories (`dog —is a→ pet —is a→
//!   animal`), which is what lets the executor resolve class nouns like
//!   "pets" or "clothes" down to scene instances;
//! * a **character universe** (the paper's Fig. 1 movie graph): named
//!   entities with social relations, each `is a` wizard and transitively a
//!   person.

use svqa_graph::{Graph, GraphBuilder, IS_A};

/// `(category, class noun)` taxonomy links; class nouns then roll up via
/// [`CLASS_HIERARCHY`].
pub const CATEGORY_CLASSES: &[(&str, &str)] = &[
    // pets and animals
    ("dog", "pet"),
    ("cat", "pet"),
    ("bird", "animal"),
    ("horse", "animal"),
    ("sheep", "animal"),
    ("cow", "animal"),
    ("elephant", "animal"),
    ("bear", "animal"),
    ("zebra", "animal"),
    ("giraffe", "animal"),
    ("teddy bear", "animal"),
    // people
    ("man", "person"),
    ("woman", "person"),
    ("child", "person"),
    ("wizard", "person"),
    ("player", "person"),
    // vehicles
    ("car", "vehicle"),
    ("bus", "vehicle"),
    ("truck", "vehicle"),
    ("motorcycle", "vehicle"),
    ("bicycle", "vehicle"),
    ("train", "vehicle"),
    ("boat", "vehicle"),
    ("airplane", "vehicle"),
    // clothing
    ("hat", "clothes"),
    ("shirt", "clothes"),
    ("jacket", "clothes"),
    ("robe", "clothes"),
    ("helmet", "clothes"),
    ("dress", "clothes"),
    // structures
    ("building", "structure"),
    ("house", "structure"),
    ("fence", "structure"),
    ("bench", "structure"),
    ("tower", "structure"),
    ("bridge", "structure"),
    // furniture
    ("bed", "furniture"),
    ("chair", "furniture"),
    ("table", "furniture"),
    ("couch", "furniture"),
    ("window", "furniture"),
    ("door", "furniture"),
    // everyday objects
    ("frisbee", "object"),
    ("ball", "object"),
    ("umbrella", "object"),
    ("backpack", "object"),
    ("bottle", "object"),
    ("cup", "object"),
    ("book", "object"),
    ("phone", "object"),
    ("laptop", "object"),
    ("tv", "object"),
    ("kite", "object"),
    ("skateboard", "object"),
    ("surfboard", "object"),
];

/// Class-noun roll-ups.
pub const CLASS_HIERARCHY: &[(&str, &str)] = &[("pet", "animal")];

/// The character universe: every name `is a` wizard.
pub const CHARACTERS: &[&str] = &[
    "harry potter",
    "ginny weasley",
    "cho chang",
    "ron weasley",
    "hermione granger",
    "neville longbottom",
    "luna lovegood",
    "draco malfoy",
    "severus snape",
    "albus dumbledore",
    "fred weasley",
    "cedric diggory",
];

/// Social relations `(subject, relation, object)`.
pub const CHARACTER_RELATIONS: &[(&str, &str, &str)] = &[
    ("ginny weasley", "girlfriend of", "harry potter"),
    ("cho chang", "girlfriend of", "harry potter"),
    ("hermione granger", "girlfriend of", "ron weasley"),
    ("cedric diggory", "boyfriend of", "cho chang"),
    ("ron weasley", "friend of", "harry potter"),
    ("hermione granger", "friend of", "harry potter"),
    ("neville longbottom", "friend of", "ginny weasley"),
    ("luna lovegood", "friend of", "ginny weasley"),
    ("draco malfoy", "enemy of", "harry potter"),
    ("severus snape", "mentor of", "draco malfoy"),
    ("albus dumbledore", "mentor of", "harry potter"),
    ("fred weasley", "sibling of", "ron weasley"),
    ("fred weasley", "sibling of", "ginny weasley"),
];

/// Build the knowledge graph `G`.
pub fn build_knowledge_graph() -> Graph {
    let mut b = GraphBuilder::new();
    for &(cat, class) in CATEGORY_CLASSES {
        fault_triple(&mut b, cat, IS_A, class);
    }
    for &(sub, sup) in CLASS_HIERARCHY {
        fault_triple(&mut b, sub, IS_A, sup);
    }
    for &name in CHARACTERS {
        fault_triple(&mut b, name, IS_A, "wizard");
    }
    for &(s, r, o) in CHARACTER_RELATIONS {
        fault_triple(&mut b, s, r, o);
    }
    b.build()
}

/// Add a triple through the `kg.triple` fault gate (one draw per triple).
/// KG construction is infallible, so `Error` degrades to a dropped triple;
/// `CorruptLabel` rewrites the relation to a semantically dead label.
fn fault_triple(b: &mut GraphBuilder, s: &str, r: &str, o: &str) {
    match svqa_fault::draw(svqa_fault::site::KG_TRIPLE) {
        Some(svqa_fault::FaultKind::Error | svqa_fault::FaultKind::DropResult) => {}
        Some(svqa_fault::FaultKind::Latency(ms)) => {
            svqa_fault::apply_latency(ms, None);
            b.triple(s, r, o);
        }
        Some(svqa_fault::FaultKind::CorruptLabel) => {
            b.triple(s, "unrelated to", o);
        }
        None => {
            b.triple(s, r, o);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn taxonomy_links_exist() {
        let g = build_knowledge_graph();
        let dog = g.vertices_with_label("dog")[0];
        let pet = g.vertices_with_label("pet")[0];
        assert!(g.has_edge(dog, pet, "is a"));
        let animal = g.vertices_with_label("animal")[0];
        assert!(g.has_edge(pet, animal, "is a"));
    }

    #[test]
    fn characters_are_wizards() {
        let g = build_knowledge_graph();
        let harry = g.vertices_with_label("harry potter")[0];
        let wizard = g.vertices_with_label("wizard")[0];
        assert!(g.has_edge(harry, wizard, "is a"));
    }

    #[test]
    fn harry_has_two_girlfriends() {
        // The paper's Example 1: "Ginny Weasley and Cho Chang".
        let g = build_knowledge_graph();
        let harry = g.vertices_with_label("harry potter")[0];
        let girlfriends: Vec<_> = g
            .in_edges(harry)
            .filter(|&(id, _)| g.edge_label(id) == Some("girlfriend of"))
            .map(|(_, e)| g.vertex_label(e.src()).unwrap().to_owned())
            .collect();
        assert_eq!(girlfriends.len(), 2);
        assert!(girlfriends.contains(&"ginny weasley".to_owned()));
        assert!(girlfriends.contains(&"cho chang".to_owned()));
    }

    #[test]
    fn graph_is_well_formed() {
        let g = build_knowledge_graph();
        g.validate().unwrap();
        assert!(g.vertex_count() > 60);
        assert!(g.edge_count() > 60);
    }

    #[test]
    fn every_category_is_a_vision_category() {
        for &(cat, _) in CATEGORY_CLASSES {
            assert!(
                svqa_vision::scene::category_info(cat).is_some(),
                "{cat} unknown to svqa-vision"
            );
        }
    }
}
