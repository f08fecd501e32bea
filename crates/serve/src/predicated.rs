//! Predicated serving layout: branch-free traversal over the flat array.
//!
//! The flat layout still takes one unpredictable branch per node — the
//! split outcome — which on real hardware costs a pipeline flush about half
//! the time at 50/50 splits. The predicated layout removes it the way
//! QuickScorer-style rankers do: every step evaluates *both* the numeric
//! and the categorical test unconditionally, selects the surviving child
//! with integer arithmetic (a conditional move, never a jump), and every
//! record walks exactly `depth` steps — leaves loop onto themselves, so a
//! record that reaches a shallow leaf idles in place for the remaining
//! steps. The trade is explicit: no branch charge per step, but `depth`
//! steps per record instead of the record's actual path length, and a
//! wider 32-byte node. Which side wins depends on how balanced the tree
//! is — exactly what `fig_serving` ablates.

use pdc_cgm::wire::{DecodeError, DecodeResult, Wire};
use pdc_cgm::{OpKind, Proc};
use pdc_clouds::{DecisionTree, Node, Splitter};
use pdc_datagen::{Record, NUM_CATEGORICAL, NUM_NUMERIC};

use crate::predictor::Predictor;

/// One predicated node: 32 bytes, every field valid on every node so no
/// step ever branches on node kind.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PredNode {
    /// `[left, right]` step targets; leaves point both at themselves.
    pub children: [u32; 2],
    /// Numeric threshold (0.0 on categorical tests and leaves — evaluated
    /// regardless, selected away arithmetically).
    pub thr: f64,
    /// Categorical left-branch bitmask (0 on numeric tests and leaves).
    pub mask: u64,
    /// Numeric attribute index (always in range; 0 when unused).
    pub nattr: u16,
    /// Categorical attribute index (always in range; 0 when unused).
    pub cattr: u16,
    /// 1 selects the categorical test, 0 the numeric one.
    pub is_cat: u16,
    /// Predicted class (meaningful on leaves).
    pub class: u8,
}

impl Wire for PredNode {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.children[0].encode(buf);
        self.children[1].encode(buf);
        self.thr.encode(buf);
        self.mask.encode(buf);
        self.nattr.encode(buf);
        self.cattr.encode(buf);
        self.is_cat.encode(buf);
        self.class.encode(buf);
    }

    fn decode(bytes: &mut &[u8]) -> DecodeResult<Self> {
        Ok(PredNode {
            children: [u32::decode(bytes)?, u32::decode(bytes)?],
            thr: f64::decode(bytes)?,
            mask: u64::decode(bytes)?,
            nattr: u16::decode(bytes)?,
            cattr: u16::decode(bytes)?,
            is_cat: u16::decode(bytes)?,
            class: u8::decode(bytes)?,
        })
    }
}

/// A tree compiled for branch-free traversal (see the module docs).
///
/// Predictions are bit-identical to the source [`DecisionTree`]: each step
/// applies the exact test of [`Splitter::goes_left`], merely selecting the
/// result arithmetically instead of branching on the splitter kind.
#[derive(Debug, Clone, PartialEq)]
pub struct PredicatedTree {
    nodes: Vec<PredNode>,
    depth: u32,
}

impl PredicatedTree {
    /// Compile a built tree: breadth-first node order (shared with
    /// [`crate::FlatTree`]), leaves self-looped, padded traversal depth
    /// equal to the tree's depth.
    pub fn compile(tree: &DecisionTree) -> PredicatedTree {
        let mut order = vec![tree.root()];
        let mut nodes: Vec<PredNode> = Vec::new();
        let mut head = 0;
        while head < order.len() {
            let id = order[head];
            let my_index = head as u32;
            head += 1;
            match &tree.nodes[id] {
                Node::Leaf { class, .. } => nodes.push(PredNode {
                    children: [my_index, my_index],
                    thr: 0.0,
                    mask: 0,
                    nattr: 0,
                    cattr: 0,
                    is_cat: 0,
                    class: *class,
                }),
                Node::Internal {
                    splitter,
                    left,
                    right,
                    ..
                } => {
                    let first_child =
                        u32::try_from(order.len()).expect("tree exceeds u32 node indices");
                    order.push(*left);
                    order.push(*right);
                    let node = match *splitter {
                        Splitter::Numeric { attr, threshold } => PredNode {
                            children: [first_child, first_child + 1],
                            thr: threshold,
                            mask: 0,
                            nattr: attr as u16,
                            cattr: 0,
                            is_cat: 0,
                            class: 0,
                        },
                        Splitter::Categorical { attr, left_values } => PredNode {
                            children: [first_child, first_child + 1],
                            thr: 0.0,
                            mask: left_values,
                            nattr: 0,
                            cattr: attr as u16,
                            is_cat: 1,
                            class: 0,
                        },
                    };
                    nodes.push(node);
                }
            }
        }
        PredicatedTree {
            nodes,
            depth: tree.depth() as u32,
        }
    }

    /// Steps every record walks (the source tree's depth).
    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// The compiled node array (breadth-first; index 0 is the root).
    pub fn nodes(&self) -> &[PredNode] {
        &self.nodes
    }
}

impl Predictor for PredicatedTree {
    fn layout_name(&self) -> &'static str {
        "predicated"
    }

    fn predict(&self, r: &Record) -> u8 {
        let mut i = 0u32;
        for _ in 0..self.depth {
            let n = &self.nodes[i as usize];
            let num_left = (r.numeric[n.nattr as usize] <= n.thr) as u32;
            let cat_left = ((n.mask >> r.categorical[n.cattr as usize]) & 1) as u32;
            let is_cat = n.is_cat as u32;
            let left = is_cat * cat_left + (1 - is_cat) * num_left;
            i = n.children[(1 - left) as usize];
        }
        self.nodes[i as usize].class
    }

    fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    fn footprint_bytes(&self) -> usize {
        self.nodes.len() * std::mem::size_of::<PredNode>()
    }

    fn score_batch(&self, proc: &mut Proc, records: &[Record], out: &mut Vec<u8>) {
        for r in records {
            out.push(self.predict(r));
        }
        // Exactly `depth` conditional-move steps per record, no branch
        // charge — the padded, branch-free schedule.
        let steps = records.len() as u64 * self.depth as u64;
        proc.charge_ws(OpKind::SplitTest, steps, self.footprint_bytes());
    }
}

impl Wire for PredicatedTree {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.nodes.encode(buf);
        self.depth.encode(buf);
    }

    /// Decodes and validates the tree, so that `predict` on a decoded tree
    /// stays in bounds and takes at most one step per internal node: there
    /// is a root; a node whose step targets include itself is a leaf and
    /// must loop onto itself both ways; every other node's targets lie
    /// strictly after it (breadth-first order, which rules out cycles) and
    /// inside the array; both attribute ids of every node name real
    /// attributes (each step evaluates both tests); the test selector is 0
    /// or 1; and the padded depth is at most `(nodes - 1) / 2`, the deepest
    /// a tree of full binary nodes can be.
    fn decode(bytes: &mut &[u8]) -> DecodeResult<Self> {
        let nodes = Vec::<PredNode>::decode(bytes)?;
        let depth = u32::decode(bytes)?;
        let invalid = |what| DecodeError {
            what,
            remaining: bytes.len(),
            trailing: false,
        };
        if nodes.is_empty() {
            return Err(invalid("predicated tree has no root node"));
        }
        for (i, n) in nodes.iter().enumerate() {
            let [left, right] = n.children.map(|c| c as usize);
            if left == i || right == i {
                if left != right {
                    return Err(invalid("predicated tree leaf does not loop onto itself"));
                }
            } else if left < i || right < i {
                return Err(invalid("predicated tree child does not follow its parent"));
            } else if left >= nodes.len() || right >= nodes.len() {
                return Err(invalid("predicated tree child index out of range"));
            }
            if n.nattr as usize >= NUM_NUMERIC || n.cattr as usize >= NUM_CATEGORICAL {
                return Err(invalid("predicated tree attribute id out of range"));
            }
            if n.is_cat > 1 {
                return Err(invalid("predicated tree test selector out of range"));
            }
        }
        if depth as usize > (nodes.len() - 1) / 2 {
            return Err(invalid("predicated tree depth exceeds its node count"));
        }
        Ok(PredicatedTree { nodes, depth })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdc_datagen::{generate, GeneratorConfig};

    fn lopsided_tree() -> DecisionTree {
        // Left chain of depth 3 with a shallow right leaf at every level.
        let mut t = DecisionTree::single_leaf(vec![8, 8]);
        let mut at = 0;
        for step in 0..3 {
            let (l, _) = t.split_leaf(
                at,
                Splitter::Numeric {
                    attr: 2,
                    threshold: 30.0 + 10.0 * step as f64,
                },
                vec![4, 0],
                vec![0, 4],
            );
            at = l;
        }
        t
    }

    #[test]
    fn node_is_thirty_two_bytes() {
        assert_eq!(std::mem::size_of::<PredNode>(), 32);
    }

    #[test]
    fn padded_walk_matches_the_source_tree() {
        let tree = lopsided_tree();
        let pred = PredicatedTree::compile(&tree);
        assert_eq!(pred.depth(), 3);
        for r in generate(500, GeneratorConfig::default()) {
            assert_eq!(pred.predict(&r), tree.predict(&r));
        }
    }

    #[test]
    fn leaves_self_loop() {
        let pred = PredicatedTree::compile(&lopsided_tree());
        for (i, n) in pred.nodes().iter().enumerate() {
            if n.children[0] as usize == i {
                assert_eq!(n.children[1] as usize, i, "leaf must self-loop both ways");
            }
        }
    }

    #[test]
    fn single_leaf_takes_zero_steps() {
        let tree = DecisionTree::single_leaf(vec![9, 1]);
        let pred = PredicatedTree::compile(&tree);
        assert_eq!(pred.depth(), 0);
        let r = generate(1, GeneratorConfig::default())[0];
        assert_eq!(pred.predict(&r), 0);
    }

    #[test]
    fn categorical_only_tree_matches() {
        let mut tree = DecisionTree::single_leaf(vec![6, 6]);
        let (l, _) = tree.split_leaf(
            0,
            Splitter::Categorical {
                attr: 1,
                left_values: 0b1010_1010_1010_1010_1010,
            },
            vec![6, 0],
            vec![0, 6],
        );
        tree.split_leaf(
            l,
            Splitter::Categorical {
                attr: 0,
                left_values: 0b0_0111,
            },
            vec![3, 0],
            vec![3, 0],
        );
        let pred = PredicatedTree::compile(&tree);
        for r in generate(500, GeneratorConfig::default()) {
            assert_eq!(pred.predict(&r), tree.predict(&r));
        }
    }

    #[test]
    fn wire_roundtrip() {
        let pred = PredicatedTree::compile(&lopsided_tree());
        let bytes = pred.to_bytes();
        assert_eq!(PredicatedTree::from_bytes(&bytes).unwrap(), pred);
    }

    /// Encode a raw node array and depth the way [`PredicatedTree`] does,
    /// bypassing the compiler's invariants.
    fn raw(nodes: &[PredNode], depth: u32) -> Vec<u8> {
        (nodes.to_vec(), depth).to_bytes()
    }

    fn decode_error(nodes: &[PredNode], depth: u32) -> &'static str {
        PredicatedTree::from_bytes(&raw(nodes, depth))
            .expect_err("invalid tree decoded")
            .what
    }

    fn node(children: [u32; 2]) -> PredNode {
        PredNode {
            children,
            thr: 40.0,
            mask: 0,
            nattr: 2,
            cattr: 0,
            is_cat: 0,
            class: 0,
        }
    }

    /// Root splitting into two self-looped leaves.
    fn stump() -> [PredNode; 3] {
        [node([1, 2]), node([1, 1]), node([2, 2])]
    }

    #[test]
    fn decode_accepts_compiled_trees() {
        for tree in [lopsided_tree(), DecisionTree::single_leaf(vec![1, 0])] {
            let pred = PredicatedTree::compile(&tree);
            assert_eq!(PredicatedTree::from_bytes(&pred.to_bytes()).unwrap(), pred);
        }
        assert!(PredicatedTree::from_bytes(&raw(&stump(), 1)).is_ok());
    }

    #[test]
    fn decode_rejects_an_empty_tree() {
        assert_eq!(decode_error(&[], 0), "predicated tree has no root node");
    }

    #[test]
    fn decode_rejects_a_back_edge() {
        // Node 2 steps back to node 1: a cycle instead of a leaf.
        let nodes = [node([1, 2]), node([1, 1]), node([1, 3]), node([3, 3])];
        assert_eq!(
            decode_error(&nodes, 1),
            "predicated tree child does not follow its parent"
        );
    }

    #[test]
    fn decode_rejects_an_out_of_range_child() {
        let nodes = [node([1, 3]), node([1, 1]), node([2, 2])];
        assert_eq!(
            decode_error(&nodes, 1),
            "predicated tree child index out of range"
        );
    }

    #[test]
    fn decode_rejects_a_half_looped_leaf() {
        let mut nodes = stump();
        nodes[1].children = [1, 2];
        assert_eq!(
            decode_error(&nodes, 1),
            "predicated tree leaf does not loop onto itself"
        );
    }

    #[test]
    fn decode_rejects_an_unbounded_depth() {
        // A padded depth beyond the node count would make every record
        // idle for up to 2^32 steps.
        assert_eq!(
            decode_error(&stump(), u32::MAX),
            "predicated tree depth exceeds its node count"
        );
        assert_eq!(
            decode_error(&stump(), 2),
            "predicated tree depth exceeds its node count"
        );
    }

    #[test]
    fn decode_rejects_unknown_attribute_ids() {
        let mut nodes = stump();
        nodes[0].nattr = NUM_NUMERIC as u16;
        assert_eq!(
            decode_error(&nodes, 1),
            "predicated tree attribute id out of range"
        );
        // Leaves evaluate both tests too, so their ids are checked as well.
        let mut nodes = stump();
        nodes[2].cattr = NUM_CATEGORICAL as u16;
        assert_eq!(
            decode_error(&nodes, 1),
            "predicated tree attribute id out of range"
        );
    }

    #[test]
    fn decode_rejects_an_unknown_test_selector() {
        let mut nodes = stump();
        nodes[0].is_cat = 2;
        assert_eq!(
            decode_error(&nodes, 1),
            "predicated tree test selector out of range"
        );
    }
}
