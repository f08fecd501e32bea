//! Flat serving layout: the tree compiled into one contiguous,
//! breadth-first node array with `u32` child indices.
//!
//! This is the QuickScorer-era observation applied to a single tree: at
//! serving time the training arena's enum nodes, heap-allocated class
//! counts and pointer-sized ids are pure overhead. Compilation strips a
//! node down to 16 bytes — child index, packed attribute id, leaf class and
//! the 8-byte test payload (threshold bits or category bitmask) — and lays
//! siblings out adjacently in breadth-first order, so the hot top levels of
//! the tree share cache lines and a child access is an indexed load into
//! one slice instead of a dependent pointer chase.

use pdc_cgm::wire::{DecodeError, DecodeResult, Wire};
use pdc_cgm::{OpKind, Proc};
use pdc_clouds::{DecisionTree, Node, Splitter};
use pdc_datagen::{Record, NUM_CATEGORICAL, NUM_NUMERIC};

use crate::predictor::Predictor;

/// One compiled node: 16 bytes, no heap.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlatNode {
    /// Breadth-first index of the left child; the right child is
    /// `first_child + 1`. `0` marks a leaf (the root is never a child).
    pub first_child: u32,
    /// Attribute id: `< NUM_NUMERIC` selects a numeric attribute,
    /// otherwise `attr - NUM_NUMERIC` selects a categorical one.
    pub attr: u16,
    /// Predicted class (meaningful on leaves).
    pub class: u8,
    /// Test payload: numeric threshold as `f64` bits, or the categorical
    /// left-branch bitmask.
    pub test: u64,
}

impl FlatNode {
    fn leaf(class: u8) -> Self {
        FlatNode {
            first_child: 0,
            attr: 0,
            class,
            test: 0,
        }
    }
}

impl Wire for FlatNode {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.first_child.encode(buf);
        self.attr.encode(buf);
        self.class.encode(buf);
        self.test.encode(buf);
    }

    fn decode(bytes: &mut &[u8]) -> DecodeResult<Self> {
        Ok(FlatNode {
            first_child: u32::decode(bytes)?,
            attr: u16::decode(bytes)?,
            class: u8::decode(bytes)?,
            test: u64::decode(bytes)?,
        })
    }
}

/// A tree compiled into a breadth-first [`FlatNode`] array.
///
/// Predictions are bit-identical to the source [`DecisionTree`]: the
/// compiler preserves every threshold's `f64` bits and every categorical
/// bitmask, and the traversal applies the exact tests of
/// [`Splitter::goes_left`].
///
/// ```
/// use pdc_clouds::{DecisionTree, Splitter};
/// use pdc_datagen::{generate, GeneratorConfig};
/// use pdc_serve::{FlatTree, Predictor};
///
/// let mut tree = DecisionTree::single_leaf(vec![8, 8]);
/// let (left, _) = tree.split_leaf(
///     0,
///     Splitter::Numeric { attr: 2, threshold: 40.0 },
///     vec![8, 0],
///     vec![0, 8],
/// );
/// tree.split_leaf(
///     left,
///     Splitter::Categorical { attr: 0, left_values: 0b110 },
///     vec![4, 0],
///     vec![4, 0],
/// );
/// let flat = FlatTree::compile(&tree);
/// assert_eq!(flat.num_nodes(), 5); // breadth-first, reachable nodes only
/// for r in generate(100, GeneratorConfig::default()) {
///     assert_eq!(flat.predict(&r), tree.predict(&r));
/// }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FlatTree {
    nodes: Vec<FlatNode>,
}

/// Pack a [`Splitter`] into the `(attr, test)` pair of a [`FlatNode`].
fn pack_splitter(s: &Splitter) -> (u16, u64) {
    match *s {
        Splitter::Numeric { attr, threshold } => (attr as u16, threshold.to_bits()),
        Splitter::Categorical { attr, left_values } => {
            ((NUM_NUMERIC + attr) as u16, left_values)
        }
    }
}

impl FlatTree {
    /// Compile a built tree: breadth-first walk of the *reachable* nodes
    /// (pruning and grafting can orphan arena entries; those are dropped),
    /// siblings adjacent, children addressed by `u32` index.
    pub fn compile(tree: &DecisionTree) -> FlatTree {
        let mut order = vec![tree.root()];
        let mut nodes: Vec<FlatNode> = Vec::new();
        let mut head = 0;
        while head < order.len() {
            let id = order[head];
            head += 1;
            match &tree.nodes[id] {
                Node::Leaf { class, .. } => nodes.push(FlatNode::leaf(*class)),
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
                    let (attr, test) = pack_splitter(splitter);
                    nodes.push(FlatNode {
                        first_child,
                        attr,
                        class: 0,
                        test,
                    });
                }
            }
        }
        FlatTree { nodes }
    }

    /// The compiled node array (breadth-first; index 0 is the root).
    pub fn nodes(&self) -> &[FlatNode] {
        &self.nodes
    }

    /// Split tests on the root-to-leaf path of `r`.
    fn path_len(&self, r: &Record) -> u64 {
        let mut i = 0usize;
        let mut steps = 0;
        loop {
            let n = &self.nodes[i];
            if n.first_child == 0 {
                return steps;
            }
            steps += 1;
            i = n.first_child as usize + !test_goes_left(n, r) as usize;
        }
    }
}

/// Apply a flat node's test — exactly [`Splitter::goes_left`] on the packed
/// representation.
#[inline]
fn test_goes_left(n: &FlatNode, r: &Record) -> bool {
    if (n.attr as usize) < NUM_NUMERIC {
        r.num(n.attr as usize) <= f64::from_bits(n.test)
    } else {
        n.test & (1u64 << r.cat(n.attr as usize - NUM_NUMERIC)) != 0
    }
}

impl Predictor for FlatTree {
    fn layout_name(&self) -> &'static str {
        "flat"
    }

    fn predict(&self, r: &Record) -> u8 {
        let mut i = 0usize;
        loop {
            let n = &self.nodes[i];
            if n.first_child == 0 {
                return n.class;
            }
            i = n.first_child as usize + !test_goes_left(n, r) as usize;
        }
    }

    fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    fn footprint_bytes(&self) -> usize {
        self.nodes.len() * std::mem::size_of::<FlatNode>()
    }

    fn score_batch(&self, proc: &mut Proc, records: &[Record], out: &mut Vec<u8>) {
        let mut steps = 0u64;
        for r in records {
            steps += self.path_len(r);
            out.push(self.predict(r));
        }
        // Same split tests and branches as the pointer tree, but no
        // dependent-load charge, against a far smaller working set.
        let ws = self.footprint_bytes();
        proc.charge_ws(OpKind::SplitTest, steps, ws);
        proc.charge_ws(OpKind::Compare, steps, ws);
    }
}

impl Wire for FlatTree {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.nodes.encode(buf);
    }

    /// Decodes and validates the node array, so that traversal of a decoded
    /// tree always terminates in bounds: there is a root, every internal
    /// node's children lie strictly after it (breadth-first order, which
    /// rules out self-loops and cycles) and inside the array, and every
    /// attribute id names a real attribute.
    fn decode(bytes: &mut &[u8]) -> DecodeResult<Self> {
        let nodes = Vec::<FlatNode>::decode(bytes)?;
        let invalid = |what| DecodeError {
            what,
            remaining: bytes.len(),
            trailing: false,
        };
        if nodes.is_empty() {
            return Err(invalid("flat tree has no root node"));
        }
        for (i, n) in nodes.iter().enumerate() {
            if n.first_child == 0 {
                continue;
            }
            let first = n.first_child as usize;
            if first <= i {
                return Err(invalid("flat tree child does not follow its parent"));
            }
            if first + 1 >= nodes.len() {
                return Err(invalid("flat tree child index out of range"));
            }
            if n.attr as usize >= NUM_NUMERIC + NUM_CATEGORICAL {
                return Err(invalid("flat tree attribute id out of range"));
            }
        }
        Ok(FlatTree { nodes })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdc_datagen::{generate, GeneratorConfig};

    fn mixed_tree() -> DecisionTree {
        let mut t = DecisionTree::single_leaf(vec![10, 10]);
        let (l, r) = t.split_leaf(
            0,
            Splitter::Numeric {
                attr: 0,
                threshold: 70_000.0,
            },
            vec![10, 0],
            vec![0, 10],
        );
        t.split_leaf(
            l,
            Splitter::Categorical {
                attr: 2,
                left_values: 0b1_0101,
            },
            vec![5, 0],
            vec![5, 0],
        );
        t.split_leaf(
            r,
            Splitter::Numeric {
                attr: 2,
                threshold: 45.0,
            },
            vec![0, 5],
            vec![0, 5],
        );
        t
    }

    #[test]
    fn node_is_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<FlatNode>(), 16);
    }

    #[test]
    fn compile_is_breadth_first() {
        let flat = FlatTree::compile(&mixed_tree());
        assert_eq!(flat.num_nodes(), 7);
        // Root's children are adjacent right after it.
        assert_eq!(flat.nodes()[0].first_child, 1);
        // Level-2 internals hand out the next sibling pairs in order.
        assert_eq!(flat.nodes()[1].first_child, 3);
        assert_eq!(flat.nodes()[2].first_child, 5);
        for leaf in &flat.nodes()[3..] {
            assert_eq!(leaf.first_child, 0);
        }
    }

    #[test]
    fn predictions_match_the_source_tree() {
        let tree = mixed_tree();
        let flat = FlatTree::compile(&tree);
        for r in generate(500, GeneratorConfig::default()) {
            assert_eq!(flat.predict(&r), tree.predict(&r));
        }
    }

    #[test]
    fn single_leaf_compiles_and_predicts() {
        let tree = DecisionTree::single_leaf(vec![0, 3]);
        let flat = FlatTree::compile(&tree);
        assert_eq!(flat.num_nodes(), 1);
        let r = generate(1, GeneratorConfig::default())[0];
        assert_eq!(flat.predict(&r), 1);
        assert_eq!(flat.path_len(&r), 0);
    }

    #[test]
    fn wire_roundtrip() {
        let flat = FlatTree::compile(&mixed_tree());
        let bytes = flat.to_bytes();
        assert_eq!(FlatTree::from_bytes(&bytes).unwrap(), flat);
    }

    /// Encode a raw node array the way [`FlatTree`] does, bypassing the
    /// compiler's invariants.
    fn raw(nodes: &[FlatNode]) -> Vec<u8> {
        nodes.to_vec().to_bytes()
    }

    fn internal(first_child: u32, attr: u16) -> FlatNode {
        FlatNode {
            first_child,
            attr,
            class: 0,
            test: 40.0f64.to_bits(),
        }
    }

    fn decode_error(nodes: &[FlatNode]) -> &'static str {
        FlatTree::from_bytes(&raw(nodes))
            .expect_err("invalid tree decoded")
            .what
    }

    #[test]
    fn decode_rejects_a_self_loop() {
        // Node 1 names itself as its left child: `predict` would never
        // reach a leaf.
        let nodes = [
            internal(1, 0),
            internal(1, 2),
            FlatNode::leaf(0),
            FlatNode::leaf(1),
        ];
        assert_eq!(
            decode_error(&nodes),
            "flat tree child does not follow its parent"
        );
    }

    #[test]
    fn decode_rejects_a_back_edge() {
        // Node 3 points back at node 1, closing the cycle 1 → 3 → 1.
        let nodes = [
            internal(1, 0),
            internal(3, 0),
            FlatNode::leaf(0),
            internal(1, 2),
            FlatNode::leaf(1),
        ];
        assert_eq!(
            decode_error(&nodes),
            "flat tree child does not follow its parent"
        );
    }

    #[test]
    fn decode_rejects_an_out_of_range_child() {
        let nodes = [
            internal(1, 0),
            FlatNode::leaf(0),
            FlatNode::leaf(1),
            internal(7, 2),
        ];
        assert_eq!(decode_error(&nodes), "flat tree child index out of range");
        // The right sibling (`first_child + 1`) must exist too.
        let nodes = [internal(1, 0), FlatNode::leaf(0)];
        assert_eq!(decode_error(&nodes), "flat tree child index out of range");
    }

    #[test]
    fn decode_rejects_empty_trees_and_unknown_attributes() {
        assert_eq!(decode_error(&[]), "flat tree has no root node");
        let bad_attr = (NUM_NUMERIC + NUM_CATEGORICAL) as u16;
        let nodes = [internal(1, bad_attr), FlatNode::leaf(0), FlatNode::leaf(1)];
        assert_eq!(decode_error(&nodes), "flat tree attribute id out of range");
    }

    #[test]
    fn decode_accepts_every_compiled_tree() {
        for tree in [mixed_tree(), DecisionTree::single_leaf(vec![1, 0])] {
            let flat = FlatTree::compile(&tree);
            assert_eq!(FlatTree::from_bytes(&flat.to_bytes()).unwrap(), flat);
        }
    }

    #[test]
    fn footprint_is_compact() {
        let tree = mixed_tree();
        let flat = FlatTree::compile(&tree);
        assert_eq!(flat.footprint_bytes(), 7 * 16);
    }
}
