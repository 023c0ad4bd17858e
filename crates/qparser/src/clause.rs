//! Clause segmentation (Algorithm 2 parse stage, first half).
//!
//! §IV-B: clauses are found through their predicates — "we first find all
//! the verbs in the sentence and then obtain the words that have the edges
//! with the verbs in the DT". A clause is identified by its content verb;
//! relative clauses carry their antecedent (the noun their verb's
//! `acl:relcl` arc points at) and a nesting depth.

use serde::{Deserialize, Serialize};
use svqa_nlp::dep::{DepLabel, DepTree};

/// One segmented clause.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Clause {
    /// Token index of the clause's content verb.
    pub verb: usize,
    /// Nesting depth: 0 for the main clause, +1 per `acl:relcl` hop.
    pub depth: usize,
    /// Token index of the antecedent noun, for relative clauses.
    pub antecedent: Option<usize>,
}

/// Segment a dependency tree into clauses, main clause first, then by
/// increasing depth (stable within a depth level by verb position).
pub fn segment(tree: &DepTree) -> Vec<Clause> {
    let mut clauses = Vec::new();
    let root = tree.root();
    clauses.push(Clause {
        verb: root,
        depth: 0,
        antecedent: None,
    });
    // Relative clauses: verbs attached with acl:relcl; their antecedent is
    // their head noun. Depth = depth of the clause the antecedent belongs
    // to + 1, resolved by walking up the tree.
    let mut rel_verbs: Vec<usize> = (0..tree.len())
        .filter(|&i| tree.label_of(i) == DepLabel::AclRelcl && tree.tag(i).is_verb())
        .collect();
    rel_verbs.sort_unstable();
    for v in rel_verbs {
        let antecedent = tree.head_of(v);
        let depth = acl_depth(tree, v);
        clauses.push(Clause {
            verb: v,
            depth,
            antecedent,
        });
    }
    // Coordinated clauses ("... and ...") run at the main level, as do
    // stray second verbs the parser attached as `dep`.
    for i in 0..tree.len() {
        if (tree.label_of(i) == DepLabel::Conj
            || (tree.label_of(i) == DepLabel::Dep && tree.tag(i).is_verb()))
            && tree.tag(i).is_verb()
            && tree.head_of(i) == Some(root)
            && !has_aux_to(tree, i, root)
        {
            clauses.push(Clause {
                verb: i,
                depth: 0,
                antecedent: None,
            });
        }
    }
    clauses.sort_by_key(|c| (c.depth, c.verb));
    clauses
}

/// Number of `acl:relcl` arcs on the path from `v` to the root.
fn acl_depth(tree: &DepTree, mut v: usize) -> usize {
    let mut depth = 0;
    let mut hops = 0;
    loop {
        if tree.label_of(v) == DepLabel::AclRelcl {
            depth += 1;
        }
        match tree.head_of(v) {
            Some(h) => v = h,
            None => break,
        }
        hops += 1;
        if hops > tree.len() {
            break; // defensive: validate() makes this unreachable
        }
    }
    depth
}

/// Whether token `i` is an auxiliary of `head` (guards against counting a
/// stray auxiliary as a conjoined clause).
fn has_aux_to(tree: &DepTree, i: usize, head: usize) -> bool {
    tree.head_of(i) == Some(head) && matches!(tree.label_of(i), DepLabel::Aux | DepLabel::AuxPass)
}

/// The token span loosely belonging to a clause: the verb's yield (all
/// descendants), excluding nested relative clauses. Used for the Fig. 4(b)
/// style clause rendering.
pub fn clause_tokens(tree: &DepTree, verb: usize) -> Vec<usize> {
    let mut members = Vec::new();
    collect(tree, verb, verb, &mut members);
    members.sort_unstable();
    members
}

fn collect(tree: &DepTree, node: usize, clause_verb: usize, out: &mut Vec<usize>) {
    out.push(node);
    for child in tree.children_of(node) {
        // A nested relative clause belongs to its own segment.
        if tree.label_of(child) == DepLabel::AclRelcl && child != clause_verb {
            continue;
        }
        collect(tree, child, clause_verb, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use svqa_nlp::{PosTagger, RuleDependencyParser};

    fn parse(q: &str) -> DepTree {
        RuleDependencyParser::new()
            .parse(&PosTagger::new().tag(q))
            .unwrap()
    }

    #[test]
    fn single_clause() {
        let t = parse("the dog catches the frisbee");
        let cs = segment(&t);
        assert_eq!(cs.len(), 1);
        assert_eq!(cs[0].depth, 0);
        assert_eq!(t.text(cs[0].verb), "catches");
    }

    #[test]
    fn two_clauses_with_antecedent() {
        let t = parse("What kind of animals is carried by the pets that were situated in the car?");
        let cs = segment(&t);
        assert_eq!(cs.len(), 2);
        assert_eq!(t.text(cs[0].verb), "carried");
        assert_eq!(cs[0].depth, 0);
        assert_eq!(t.text(cs[1].verb), "situated");
        assert_eq!(cs[1].depth, 1);
        assert_eq!(t.text(cs[1].antecedent.unwrap()), "pets");
    }

    #[test]
    fn three_level_nesting() {
        let t = parse(
            "What kind of clothes are worn by the wizard who is watching the dog that is sitting on the grass?",
        );
        let cs = segment(&t);
        assert_eq!(cs.len(), 3);
        assert_eq!(cs[0].depth, 0);
        assert_eq!(cs[1].depth, 1);
        assert_eq!(cs[2].depth, 2);
        assert_eq!(t.text(cs[2].verb), "sitting");
        assert_eq!(t.text(cs[2].antecedent.unwrap()), "dog");
    }

    #[test]
    fn clause_tokens_exclude_nested_relatives() {
        let t = parse("What kind of animals is carried by the pets that were situated in the car?");
        let cs = segment(&t);
        let main_tokens = clause_tokens(&t, cs[0].verb);
        let texts: Vec<_> = main_tokens.iter().map(|&i| t.text(i)).collect();
        assert!(texts.contains(&"carried"));
        assert!(texts.contains(&"pets"));
        assert!(!texts.contains(&"situated"));
        assert!(!texts.contains(&"car"));
        let rel_tokens = clause_tokens(&t, cs[1].verb);
        let rel_texts: Vec<_> = rel_tokens.iter().map(|&i| t.text(i)).collect();
        assert!(rel_texts.contains(&"situated"));
        assert!(rel_texts.contains(&"car"));
    }

    #[test]
    fn clauses_sorted_by_depth_then_position() {
        let t = parse(
            "What kind of clothes are worn by the wizard who is watching the dog that is sitting on the grass?",
        );
        let cs = segment(&t);
        for w in cs.windows(2) {
            assert!(w[0].depth <= w[1].depth);
        }
    }
}
