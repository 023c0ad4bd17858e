//! Curated vocabulary shared by the tagger, lemmatizer and embedder.
//!
//! This is the stand-in for the *trained models'* lexical knowledge
//! (see `DESIGN.md`): a concept taxonomy covering the MVQA vocabulary (COCO
//! object categories, scene-graph predicates, knowledge-graph relations and
//! the question templates' verbs), irregular-verb morphology, and the
//! closed-class word lists of English.

/// A concept cluster: a semantic group of near-synonymous words. Words in
/// the same cluster embed close together (cosine ≈ 0.9); clusters sharing a
/// parent concept embed moderately close (cosine ≈ 0.5).
pub struct ConceptCluster {
    /// Cluster identifier (also the canonical member).
    pub name: &'static str,
    /// Parent concept (a coarse semantic field).
    pub parent: &'static str,
    /// Member words/phrases.
    pub members: &'static [&'static str],
}

/// The concept taxonomy. Parents are the coarse fields; members are the
/// surface forms the dataset generator and the questions use.
pub const CONCEPT_CLUSTERS: &[ConceptCluster] = &[
    // --- animals ---
    ConceptCluster {
        name: "dog",
        parent: "animal",
        members: &["dog", "puppy", "canine", "canis", "hound"],
    },
    ConceptCluster {
        name: "cat",
        parent: "animal",
        members: &["cat", "kitten", "feline"],
    },
    ConceptCluster {
        name: "bird",
        parent: "animal",
        members: &["bird", "pigeon", "parrot"],
    },
    ConceptCluster {
        name: "horse",
        parent: "animal",
        members: &["horse", "pony"],
    },
    ConceptCluster {
        name: "sheep",
        parent: "animal",
        members: &["sheep", "lamb"],
    },
    ConceptCluster {
        name: "cow",
        parent: "animal",
        members: &["cow", "cattle", "bull"],
    },
    ConceptCluster {
        name: "elephant",
        parent: "animal",
        members: &["elephant"],
    },
    ConceptCluster {
        name: "bear",
        parent: "animal",
        members: &["bear"],
    },
    ConceptCluster {
        name: "zebra",
        parent: "animal",
        members: &["zebra"],
    },
    ConceptCluster {
        name: "giraffe",
        parent: "animal",
        members: &["giraffe"],
    },
    ConceptCluster {
        name: "animal",
        parent: "animal",
        members: &["animal", "animals", "pet", "pets", "creature"],
    },
    // --- people ---
    ConceptCluster {
        name: "man",
        parent: "person",
        members: &["man", "men", "guy", "gentleman"],
    },
    ConceptCluster {
        name: "woman",
        parent: "person",
        members: &["woman", "women", "lady"],
    },
    ConceptCluster {
        name: "child",
        parent: "person",
        members: &["child", "children", "kid", "boy", "girl"],
    },
    ConceptCluster {
        name: "person",
        parent: "person",
        members: &["person", "people", "human", "somebody"],
    },
    ConceptCluster {
        name: "wizard",
        parent: "person",
        members: &["wizard", "sorcerer", "mage"],
    },
    ConceptCluster {
        name: "player",
        parent: "person",
        members: &["player", "athlete"],
    },
    ConceptCluster {
        name: "rider",
        parent: "person",
        members: &["rider", "cyclist"],
    },
    // --- vehicles ---
    ConceptCluster {
        name: "car",
        parent: "vehicle",
        members: &["car", "automobile", "sedan"],
    },
    ConceptCluster {
        name: "bus",
        parent: "vehicle",
        members: &["bus", "coach"],
    },
    ConceptCluster {
        name: "truck",
        parent: "vehicle",
        members: &["truck", "lorry"],
    },
    ConceptCluster {
        name: "motorcycle",
        parent: "vehicle",
        members: &["motorcycle", "motorbike"],
    },
    ConceptCluster {
        name: "bicycle",
        parent: "vehicle",
        members: &["bicycle", "bike"],
    },
    ConceptCluster {
        name: "train",
        parent: "vehicle",
        members: &["train"],
    },
    ConceptCluster {
        name: "boat",
        parent: "vehicle",
        members: &["boat", "ship"],
    },
    ConceptCluster {
        name: "airplane",
        parent: "vehicle",
        members: &["airplane", "plane", "aircraft"],
    },
    ConceptCluster {
        name: "vehicle",
        parent: "vehicle",
        members: &["vehicle", "vehicles"],
    },
    // --- buildings / structures ---
    ConceptCluster {
        name: "building",
        parent: "structure",
        members: &["building", "buildings"],
    },
    ConceptCluster {
        name: "house",
        parent: "structure",
        members: &["house", "home", "cottage"],
    },
    ConceptCluster {
        name: "fence",
        parent: "structure",
        members: &["fence", "railing"],
    },
    ConceptCluster {
        name: "bench",
        parent: "structure",
        members: &["bench"],
    },
    ConceptCluster {
        name: "tower",
        parent: "structure",
        members: &["tower"],
    },
    ConceptCluster {
        name: "bridge",
        parent: "structure",
        members: &["bridge"],
    },
    // --- clothing ---
    ConceptCluster {
        name: "hat",
        parent: "clothing",
        members: &["hat", "cap"],
    },
    ConceptCluster {
        name: "shirt",
        parent: "clothing",
        members: &["shirt", "t-shirt", "tshirt"],
    },
    ConceptCluster {
        name: "jacket",
        parent: "clothing",
        members: &["jacket", "coat"],
    },
    ConceptCluster {
        name: "robe",
        parent: "clothing",
        members: &["robe", "gown", "cloak"],
    },
    ConceptCluster {
        name: "helmet",
        parent: "clothing",
        members: &["helmet"],
    },
    ConceptCluster {
        name: "dress",
        parent: "clothing",
        members: &["dress", "skirt"],
    },
    ConceptCluster {
        name: "clothes",
        parent: "clothing",
        members: &["clothes", "clothing", "cloth", "outfit", "garment"],
    },
    // --- everyday objects ---
    ConceptCluster {
        name: "frisbee",
        parent: "object",
        members: &["frisbee", "disc"],
    },
    ConceptCluster {
        name: "ball",
        parent: "object",
        members: &["ball", "football", "basketball"],
    },
    ConceptCluster {
        name: "umbrella",
        parent: "object",
        members: &["umbrella", "parasol"],
    },
    ConceptCluster {
        name: "backpack",
        parent: "object",
        members: &["backpack", "bag", "knapsack"],
    },
    ConceptCluster {
        name: "bottle",
        parent: "object",
        members: &["bottle", "flask"],
    },
    ConceptCluster {
        name: "cup",
        parent: "object",
        members: &["cup", "mug", "glass"],
    },
    ConceptCluster {
        name: "book",
        parent: "object",
        members: &["book", "novel"],
    },
    ConceptCluster {
        name: "phone",
        parent: "object",
        members: &["phone", "cellphone", "smartphone"],
    },
    ConceptCluster {
        name: "laptop",
        parent: "object",
        members: &["laptop", "computer", "notebook"],
    },
    ConceptCluster {
        name: "tv",
        parent: "object",
        members: &["tv", "television", "screen"],
    },
    ConceptCluster {
        name: "kite",
        parent: "object",
        members: &["kite"],
    },
    ConceptCluster {
        name: "skateboard",
        parent: "object",
        members: &["skateboard"],
    },
    ConceptCluster {
        name: "surfboard",
        parent: "object",
        members: &["surfboard"],
    },
    // --- furniture / indoor ---
    ConceptCluster {
        name: "bed",
        parent: "furniture",
        members: &["bed", "mattress"],
    },
    ConceptCluster {
        name: "chair",
        parent: "furniture",
        members: &["chair", "seat", "stool"],
    },
    ConceptCluster {
        name: "table",
        parent: "furniture",
        members: &["table", "desk"],
    },
    ConceptCluster {
        name: "couch",
        parent: "furniture",
        members: &["couch", "sofa"],
    },
    ConceptCluster {
        name: "window",
        parent: "furniture",
        members: &["window"],
    },
    ConceptCluster {
        name: "door",
        parent: "furniture",
        members: &["door"],
    },
    // --- outdoor scenery ---
    ConceptCluster {
        name: "grass",
        parent: "scenery",
        members: &["grass", "lawn", "field"],
    },
    ConceptCluster {
        name: "tree",
        parent: "scenery",
        members: &["tree", "trees"],
    },
    ConceptCluster {
        name: "road",
        parent: "scenery",
        members: &["road", "street", "sidewalk"],
    },
    ConceptCluster {
        name: "sky",
        parent: "scenery",
        members: &["sky"],
    },
    ConceptCluster {
        name: "water",
        parent: "scenery",
        members: &["water", "lake", "river", "sea"],
    },
    ConceptCluster {
        name: "beach",
        parent: "scenery",
        members: &["beach", "sand", "shore"],
    },
    // --- action verbs (all inflections share a cluster) ---
    ConceptCluster {
        name: "wear",
        parent: "action",
        members: &["wear", "wears", "wearing", "worn", "wore", "dressed"],
    },
    ConceptCluster {
        name: "carry",
        parent: "action",
        members: &[
            "carry", "carries", "carrying", "carried", "hold", "holds", "holding", "held",
        ],
    },
    ConceptCluster {
        name: "ride",
        parent: "action",
        members: &["ride", "rides", "riding", "ridden", "rode"],
    },
    ConceptCluster {
        name: "sit",
        parent: "action",
        members: &["sit", "sits", "sitting", "sat", "situated", "situate"],
    },
    ConceptCluster {
        name: "stand",
        parent: "action",
        members: &["stand", "stands", "standing", "stood"],
    },
    ConceptCluster {
        name: "jump",
        parent: "action",
        members: &["jump", "jumps", "jumping", "jumped", "leap"],
    },
    ConceptCluster {
        name: "watch",
        parent: "action",
        members: &[
            "watch",
            "watches",
            "watching",
            "watched",
            "observe",
            "look",
            "looks",
            "looking",
            "looked",
            "looking at",
            "look at",
        ],
    },
    ConceptCluster {
        name: "walk",
        parent: "action",
        members: &["walk", "walks", "walking", "walked"],
    },
    ConceptCluster {
        name: "run",
        parent: "action",
        members: &["run", "runs", "running", "ran"],
    },
    ConceptCluster {
        name: "catch",
        parent: "action",
        members: &["catch", "catches", "catching", "caught"],
    },
    ConceptCluster {
        name: "hang",
        parent: "action",
        members: &["hang", "hangs", "hanging", "hung"],
    },
    ConceptCluster {
        name: "appear",
        parent: "action",
        members: &["appear", "appears", "appearing", "appeared"],
    },
    ConceptCluster {
        name: "eat",
        parent: "action",
        members: &["eat", "eats", "eating", "ate", "eaten"],
    },
    ConceptCluster {
        name: "play",
        parent: "action",
        members: &["play", "plays", "playing", "played"],
    },
    ConceptCluster {
        name: "drive",
        parent: "action",
        members: &["drive", "drives", "driving", "drove", "driven"],
    },
    ConceptCluster {
        name: "fly",
        parent: "action",
        members: &["fly", "flies", "flying", "flew", "flown"],
    },
    ConceptCluster {
        name: "throw",
        parent: "action",
        members: &["throw", "throws", "throwing", "threw", "thrown"],
    },
    // --- spatial relation predicates (scene-graph edge labels) ---
    ConceptCluster {
        name: "on",
        parent: "spatial",
        members: &[
            "on",
            "on top of",
            "atop",
            "upon",
            "sitting on",
            "standing on",
            "sit on",
            "stand on",
        ],
    },
    ConceptCluster {
        name: "in",
        parent: "spatial",
        members: &["in", "inside", "within", "situated in"],
    },
    ConceptCluster {
        name: "near",
        parent: "spatial",
        members: &[
            "near",
            "next to",
            "beside",
            "close to",
            "by",
            "hang out with",
            "hanging out with",
            "hang out",
            "hanging out",
            "appear with",
            "appearing with",
            "together with",
        ],
    },
    ConceptCluster {
        name: "behind",
        parent: "spatial",
        members: &["behind", "in back of"],
    },
    ConceptCluster {
        name: "in front of",
        parent: "spatial",
        members: &["in front of", "before", "facing"],
    },
    ConceptCluster {
        name: "under",
        parent: "spatial",
        members: &["under", "below", "beneath", "underneath"],
    },
    ConceptCluster {
        name: "above",
        parent: "spatial",
        members: &["above", "over"],
    },
    // --- knowledge-graph relations ---
    ConceptCluster {
        name: "girlfriend of",
        parent: "kg-relation",
        members: &["girlfriend of", "girlfriend"],
    },
    ConceptCluster {
        name: "boyfriend of",
        parent: "kg-relation",
        members: &["boyfriend of", "boyfriend"],
    },
    ConceptCluster {
        name: "friend of",
        parent: "kg-relation",
        members: &["friend of", "friend", "friends with"],
    },
    ConceptCluster {
        name: "married to",
        parent: "kg-relation",
        members: &["married to", "spouse of", "wife of", "husband of"],
    },
    ConceptCluster {
        name: "sibling of",
        parent: "kg-relation",
        members: &["sibling of", "brother of", "sister of"],
    },
    ConceptCluster {
        name: "mentor of",
        parent: "kg-relation",
        members: &["mentor of", "teacher of", "teaches"],
    },
    ConceptCluster {
        name: "enemy of",
        parent: "kg-relation",
        members: &["enemy of", "rival of"],
    },
    ConceptCluster {
        name: "member of",
        parent: "kg-relation",
        members: &["member of", "belongs to"],
    },
    ConceptCluster {
        name: "owns",
        parent: "kg-relation",
        members: &["owns", "owner of", "owned by"],
    },
    ConceptCluster {
        name: "lives in",
        parent: "kg-relation",
        members: &["lives in", "resides in"],
    },
    // --- constraint keywords (predefined word set 𝕊 of Algorithm 3) ---
    ConceptCluster {
        name: "most frequently",
        parent: "constraint",
        members: &["most frequently", "most often", "most", "frequently"],
    },
    ConceptCluster {
        name: "least frequently",
        parent: "constraint",
        members: &["least frequently", "least often", "least", "rarely"],
    },
    ConceptCluster {
        name: "at least",
        parent: "constraint",
        members: &["at least", "no fewer than"],
    },
    ConceptCluster {
        name: "at most",
        parent: "constraint",
        members: &["at most", "no more than"],
    },
    ConceptCluster {
        name: "exactly",
        parent: "constraint",
        members: &["exactly", "precisely"],
    },
];

/// Irregular verb forms: `(inflected form, lemma)`. Regular morphology is
/// handled by suffix stripping in the lemmatizer.
pub const IRREGULAR_VERBS: &[(&str, &str)] = &[
    ("worn", "wear"),
    ("wore", "wear"),
    ("held", "hold"),
    ("ridden", "ride"),
    ("rode", "ride"),
    ("sat", "sit"),
    ("stood", "stand"),
    ("caught", "catch"),
    ("hung", "hang"),
    ("ate", "eat"),
    ("eaten", "eat"),
    ("drove", "drive"),
    ("driven", "drive"),
    ("flew", "fly"),
    ("flown", "fly"),
    ("threw", "throw"),
    ("thrown", "throw"),
    ("ran", "run"),
    ("was", "be"),
    ("were", "be"),
    ("been", "be"),
    ("is", "be"),
    ("are", "be"),
    ("am", "be"),
    ("being", "be"),
    ("has", "have"),
    ("had", "have"),
    ("having", "have"),
    ("does", "do"),
    ("did", "do"),
    ("done", "do"),
    ("doing", "do"),
    ("saw", "see"),
    ("seen", "see"),
    ("went", "go"),
    ("gone", "go"),
    ("took", "take"),
    ("taken", "take"),
    ("gave", "give"),
    ("given", "give"),
    ("made", "make"),
    ("found", "find"),
    ("kept", "keep"),
    ("left", "leave"),
    ("met", "meet"),
    ("wrote", "write"),
    ("written", "write"),
];

/// Irregular noun plurals: `(plural, singular)`.
pub const IRREGULAR_PLURALS: &[(&str, &str)] = &[
    ("men", "man"),
    ("women", "woman"),
    ("children", "child"),
    ("people", "person"),
    ("sheep", "sheep"),
    ("clothes", "clothes"),
    ("pants", "pants"),
    ("glasses", "glasses"),
    ("scissors", "scissors"),
    ("feet", "foot"),
    ("teeth", "tooth"),
    ("mice", "mouse"),
    ("geese", "goose"),
    ("wolves", "wolf"),
    ("knives", "knife"),
    ("lives", "life"),
];

/// Determiners (tagged `DT`).
pub const DETERMINERS: &[&str] = &[
    "the", "a", "an", "this", "that", "these", "those", "some", "any", "no", "every", "each",
    "either", "neither", "all", "both",
];

/// Prepositions and subordinating conjunctions (tagged `IN`).
pub const PREPOSITIONS: &[&str] = &[
    "of", "in", "on", "at", "by", "with", "from", "to", "about", "over", "under", "behind", "near",
    "beside", "between", "through", "during", "inside", "outside", "above", "below", "across",
    "around", "upon", "within", "if", "whether", "because", "while", "than", "as", "beneath",
    "atop",
];

/// Personal pronouns (tagged `PRP`).
pub const PRONOUNS: &[&str] = &[
    "i",
    "you",
    "he",
    "she",
    "it",
    "we",
    "they",
    "me",
    "him",
    "her",
    "us",
    "them",
    "himself",
    "herself",
    "itself",
    "themselves",
];

/// Possessive pronouns (tagged `PRP$`).
pub const POSSESSIVE_PRONOUNS: &[&str] = &["my", "your", "his", "her", "its", "our", "their"];

/// WH-pronouns (tagged `WP`).
pub const WH_PRONOUNS: &[&str] = &["who", "whom", "what"];

/// WH-determiners (tagged `WDT`).
pub const WH_DETERMINERS: &[&str] = &["which", "whichever"];

/// WH-adverbs (tagged `WRB`).
pub const WH_ADVERBS: &[&str] = &["how", "where", "when", "why"];

/// Modal verbs (tagged `MD`).
pub const MODALS: &[&str] = &[
    "can", "could", "may", "might", "must", "shall", "should", "will", "would",
];

/// Coordinating conjunctions (tagged `CC`).
pub const CONJUNCTIONS: &[&str] = &["and", "or", "but", "nor", "yet", "so"];

/// Common adverbs (tagged `RB`) seen in the question templates.
pub const ADVERBS: &[&str] = &[
    "not",
    "n't",
    "very",
    "too",
    "also",
    "only",
    "often",
    "frequently",
    "rarely",
    "usually",
    "always",
    "never",
    "out",
    "together",
    "currently",
];

/// Superlative adverbs (tagged `RBS`).
pub const SUPERLATIVE_ADVERBS: &[&str] = &["most", "least"];

/// Common adjectives (tagged `JJ`) seen in the dataset.
pub const ADJECTIVES: &[&str] = &[
    "red",
    "blue",
    "green",
    "yellow",
    "black",
    "white",
    "brown",
    "gray",
    "orange",
    "purple",
    "pink",
    "big",
    "small",
    "large",
    "little",
    "young",
    "old",
    "tall",
    "short",
    "same",
    "different",
    "many",
    "several",
    "toy",
    "wooden",
    "main",
    "complex",
    "simple",
];

/// Cardinal number words (tagged `CD`).
pub const NUMBER_WORDS: &[&str] = &[
    "zero", "one", "two", "three", "four", "five", "six", "seven", "eight", "nine", "ten",
    "eleven", "twelve",
];

/// Latinate / foreign endings that push an unknown word towards `FW`
/// (reproducing the paper's Fig. 8a, where "canis" is tagged as a foreign
/// word). "canis" is detected by its `-is` ending while not being in the
/// lexicon.
pub const FOREIGN_ENDINGS: &[&str] = &["is", "us", "um", "ae", "os"];

/// Look up the concept cluster containing `word` (exact member match).
pub fn cluster_of(word: &str) -> Option<&'static ConceptCluster> {
    CONCEPT_CLUSTERS.iter().find(|c| c.members.contains(&word))
}

/// All nouns known to the taxonomy (members of non-action, non-spatial,
/// non-relation clusters) — the open-class noun lexicon for the tagger.
pub fn known_nouns() -> impl Iterator<Item = &'static str> {
    CONCEPT_CLUSTERS
        .iter()
        .filter(|c| {
            !matches!(
                c.parent,
                "action" | "spatial" | "kg-relation" | "constraint"
            )
        })
        .flat_map(|c| c.members.iter().copied())
        .filter(|m| !m.contains(' '))
}

/// All verb forms known to the taxonomy.
pub fn known_verb_forms() -> impl Iterator<Item = &'static str> {
    CONCEPT_CLUSTERS
        .iter()
        .filter(|c| c.parent == "action")
        .flat_map(|c| c.members.iter().copied())
        .filter(|m| !m.contains(' '))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clusters_have_members() {
        for c in CONCEPT_CLUSTERS {
            assert!(!c.members.is_empty(), "cluster {} empty", c.name);
        }
    }

    #[test]
    fn cluster_lookup() {
        assert_eq!(cluster_of("puppy").unwrap().name, "dog");
        assert_eq!(cluster_of("worn").unwrap().name, "wear");
        assert_eq!(cluster_of("sofa").unwrap().name, "couch");
        assert!(cluster_of("xylophone").is_none());
    }

    #[test]
    fn canis_is_a_dog_term() {
        // Fig. 8a's failure word is in the dog cluster (it *should* parse as
        // a noun; the tagger mis-tags it as FW because it is lexicon-unknown
        // at the POS level — see pos.rs).
        assert_eq!(cluster_of("canis").unwrap().name, "dog");
    }

    #[test]
    fn known_nouns_exclude_actions() {
        let nouns: Vec<_> = known_nouns().collect();
        assert!(nouns.contains(&"dog"));
        assert!(nouns.contains(&"fence"));
        assert!(!nouns.contains(&"wearing"));
    }

    #[test]
    fn known_verbs_cover_inflections() {
        let verbs: Vec<_> = known_verb_forms().collect();
        for form in ["wear", "worn", "wearing", "carried", "sitting"] {
            assert!(verbs.contains(&form), "{form} missing");
        }
    }

    #[test]
    fn no_duplicate_members_across_noun_clusters() {
        let mut seen = std::collections::HashSet::new();
        for c in CONCEPT_CLUSTERS {
            for m in c.members {
                assert!(
                    seen.insert((c.parent == "action", *m))
                        || c.parent == "spatial"
                        || c.parent == "kg-relation"
                        || c.parent == "constraint",
                    "duplicate member {m}"
                );
            }
        }
    }

    #[test]
    fn irregular_tables_are_folded() {
        for (form, lemma) in IRREGULAR_VERBS {
            assert_eq!(form.to_lowercase(), *form);
            assert_eq!(lemma.to_lowercase(), *lemma);
        }
        for (plural, singular) in IRREGULAR_PLURALS {
            assert_eq!(plural.to_lowercase(), *plural);
            assert_eq!(singular.to_lowercase(), *singular);
        }
    }
}
