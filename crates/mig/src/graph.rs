//! The Majority-Inverter Graph data structure.
//!
//! A MIG is a DAG whose only internal node is the three-input majority
//! `MAJ(a, b, c) = ab + ac + bc`; edges carry an optional inverter
//! (complement) bit, so `NOT` is free. Together with the constants this
//! is functionally complete: `AND(a, b) = MAJ(a, b, 0)` and
//! `OR(a, b) = MAJ(a, b, 1)`.
//!
//! Nodes are *structurally hashed* — building the same majority twice
//! returns the same node — and two of the paper's MIG axioms are applied
//! eagerly at creation time:
//!
//! * **Ω.M (majority)**: `MAJ(a, a, b) = a` and `MAJ(a, !a, b) = b`;
//! * **Ψ (inverter propagation)**: `MAJ(!a, !b, !c) = !MAJ(a, b, c)`,
//!   so a node never has all three children complemented.
//!
//! Constant children are kept (they encode AND/OR) except where Ω.M
//! already collapses them (`MAJ(0, 1, c) = c`, `MAJ(0, 0, c) = 0`, …).

use crate::tt::{TruthTable, MAX_VARS};
use c2m_cim::Row;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;
use std::ops::Not;

/// An edge into a MIG node: a node index plus a complement flag.
///
/// `Signal`s are cheap copyable handles; complementing one ([`Not`],
/// [`Mig::not`]) never allocates a node.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Signal(u32);

impl Signal {
    /// The constant-false signal (the zero node, uncomplemented).
    pub const FALSE: Signal = Signal(0);
    /// The constant-true signal (the zero node, complemented).
    pub const TRUE: Signal = Signal(1);

    fn new(node: u32, complemented: bool) -> Self {
        Signal((node << 1) | u32::from(complemented))
    }

    /// Index of the node this signal points at.
    #[must_use]
    pub fn node(self) -> u32 {
        self.0 >> 1
    }

    /// True if the edge carries an inverter.
    #[must_use]
    pub fn is_complemented(self) -> bool {
        self.0 & 1 == 1
    }
}

impl Not for Signal {
    type Output = Signal;

    fn not(self) -> Signal {
        Signal(self.0 ^ 1)
    }
}

impl fmt::Debug for Signal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == Signal::FALSE {
            write!(f, "0")
        } else if *self == Signal::TRUE {
            write!(f, "1")
        } else if self.is_complemented() {
            write!(f, "!n{}", self.node())
        } else {
            write!(f, "n{}", self.node())
        }
    }
}

/// A MIG node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Node {
    /// The constant-false node (always node 0).
    Zero,
    /// Primary input number `n`.
    Input(u32),
    /// Majority of three signals.
    Maj([Signal; 3]),
}

/// A structurally hashed Majority-Inverter Graph.
#[derive(Debug, Clone, Default)]
pub struct Mig {
    nodes: Vec<Node>,
    hash: HashMap<[Signal; 3], u32>,
    num_pis: usize,
}

impl Mig {
    /// Creates an empty MIG containing only the constant node.
    #[must_use]
    pub fn new() -> Self {
        Self {
            nodes: vec![Node::Zero],
            hash: HashMap::new(),
            num_pis: 0,
        }
    }

    /// Adds a primary input and returns its signal.
    pub fn pi(&mut self) -> Signal {
        let id = self.nodes.len() as u32;
        self.nodes.push(Node::Input(self.num_pis as u32));
        self.num_pis += 1;
        Signal::new(id, false)
    }

    /// Number of primary inputs.
    #[must_use]
    pub fn num_pis(&self) -> usize {
        self.num_pis
    }

    /// Total number of nodes (constant + inputs + majority nodes).
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the graph has no majority nodes and no inputs.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.len() == 1
    }

    /// The node a signal points at.
    ///
    /// # Panics
    ///
    /// Panics if the signal does not belong to this graph.
    #[must_use]
    pub fn node(&self, s: Signal) -> Node {
        self.nodes[s.node() as usize]
    }

    /// Complements a signal (never allocates).
    #[must_use]
    pub fn not(&self, s: Signal) -> Signal {
        !s
    }

    /// The node at a raw index.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn node_at(&self, id: u32) -> Node {
        self.nodes[id as usize]
    }

    /// Creates (or reuses) the majority of three signals, applying the
    /// Ω.M and Ψ axioms eagerly.
    pub fn maj(&mut self, a: Signal, b: Signal, c: Signal) -> Signal {
        let mut kids = [a, b, c];
        kids.sort_unstable();
        let [a, b, c] = kids;

        // Ω.M: two equal children dominate; a complementary pair yields
        // the third child.
        if a == b {
            return a;
        }
        if b == c {
            return b;
        }
        if a == !b {
            return c;
        }
        if b == !c {
            return a;
        }
        // (a == !c is impossible once sorted with a != b != c unless the
        // pair straddles, so check it too for safety.)
        if a == !c {
            return b;
        }

        // Ψ: never keep all three children complemented.
        if a.is_complemented() && b.is_complemented() && c.is_complemented() {
            let inner = self.maj(!a, !b, !c);
            return !inner;
        }

        let mut key = [a, b, c];
        key.sort_unstable();
        if let Some(&id) = self.hash.get(&key) {
            return Signal::new(id, false);
        }
        let id = self.nodes.len() as u32;
        self.nodes.push(Node::Maj(key));
        self.hash.insert(key, id);
        Signal::new(id, false)
    }

    /// `a AND b` as `MAJ(a, b, 0)`.
    pub fn and(&mut self, a: Signal, b: Signal) -> Signal {
        self.maj(a, b, Signal::FALSE)
    }

    /// `a OR b` as `MAJ(a, b, 1)`.
    pub fn or(&mut self, a: Signal, b: Signal) -> Signal {
        self.maj(a, b, Signal::TRUE)
    }

    /// `a XOR b` as `(a AND !b) OR (!a AND b)` — three majority nodes,
    /// the XOR-embedding shape the fault-protection scheme of §6 checks.
    pub fn xor(&mut self, a: Signal, b: Signal) -> Signal {
        let p = self.and(a, !b);
        let q = self.and(!a, b);
        self.or(p, q)
    }

    /// Evaluates a signal for one assignment of the primary inputs.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != num_pis()`.
    #[cfg(test)]
    pub(crate) fn eval(&self, s: Signal, inputs: &[bool]) -> bool {
        assert_eq!(inputs.len(), self.num_pis, "wrong number of inputs");
        let mut values: Vec<bool> = Vec::with_capacity(self.nodes.len());
        for node in &self.nodes {
            let v = match *node {
                Node::Zero => false,
                Node::Input(i) => inputs[i as usize],
                Node::Maj([a, b, c]) => {
                    let x = values[a.node() as usize] ^ a.is_complemented();
                    let y = values[b.node() as usize] ^ b.is_complemented();
                    let z = values[c.node() as usize] ^ c.is_complemented();
                    (x & y) | (x & z) | (y & z)
                }
            };
            values.push(v);
        }
        values[s.node() as usize] ^ s.is_complemented()
    }

    /// Bulk evaluation: every column of the input rows is an independent
    /// evaluation, exactly like the in-memory execution model.
    ///
    /// # Panics
    ///
    /// Panics if `pi_rows.len() != num_pis()` or row widths differ.
    #[must_use]
    pub fn eval_rows(&self, s: Signal, pi_rows: &[Row]) -> Row {
        assert_eq!(pi_rows.len(), self.num_pis, "wrong number of input rows");
        let width = pi_rows[0].width();
        let mut values: Vec<Row> = Vec::with_capacity(self.nodes.len());
        for node in &self.nodes {
            let v = match *node {
                Node::Zero => Row::zeros(width),
                Node::Input(i) => pi_rows[i as usize].clone(),
                Node::Maj([a, b, c]) => {
                    let fetch = |sig: Signal, values: &[Row]| -> Row {
                        let r = &values[sig.node() as usize];
                        if sig.is_complemented() {
                            r.not()
                        } else {
                            r.clone()
                        }
                    };
                    let x = fetch(a, &values);
                    let y = fetch(b, &values);
                    let z = fetch(c, &values);
                    Row::maj3(&x, &y, &z)
                }
            };
            values.push(v);
        }
        let out = &values[s.node() as usize];
        if s.is_complemented() {
            out.not()
        } else {
            out.clone()
        }
    }

    /// Truth table of a signal (requires `num_pis() <= 6`).
    ///
    /// # Panics
    ///
    /// Panics if the graph has more than six primary inputs.
    #[must_use]
    pub fn tt(&self, s: Signal) -> TruthTable {
        assert!(
            self.num_pis <= MAX_VARS,
            "truth tables support at most {MAX_VARS} inputs"
        );
        let vars = self.num_pis;
        let mut values: Vec<TruthTable> = Vec::with_capacity(self.nodes.len());
        for node in &self.nodes {
            let v = match *node {
                Node::Zero => TruthTable::constant_false(vars),
                Node::Input(i) => TruthTable::var(i as usize, vars),
                Node::Maj([a, b, c]) => {
                    let fetch = |sig: Signal, values: &[TruthTable]| -> TruthTable {
                        let t = values[sig.node() as usize];
                        if sig.is_complemented() {
                            !t
                        } else {
                            t
                        }
                    };
                    TruthTable::maj(fetch(a, &values), fetch(b, &values), fetch(c, &values))
                }
            };
            values.push(v);
        }
        let t = values[s.node() as usize];
        if s.is_complemented() {
            !t
        } else {
            t
        }
    }

    /// Majority nodes reachable from `outputs` (the paper's "size").
    #[must_use]
    pub fn node_count(&self, outputs: &[Signal]) -> usize {
        let mut seen = vec![false; self.nodes.len()];
        let mut stack: Vec<u32> = outputs.iter().map(|s| s.node()).collect();
        let mut count = 0;
        while let Some(id) = stack.pop() {
            if seen[id as usize] {
                continue;
            }
            seen[id as usize] = true;
            if let Node::Maj(kids) = self.nodes[id as usize] {
                count += 1;
                for k in kids {
                    stack.push(k.node());
                }
            }
        }
        count
    }

    /// Longest path (in majority levels) from any input to `s`.
    #[must_use]
    pub fn depth(&self, s: Signal) -> usize {
        let mut depths: Vec<usize> = Vec::with_capacity(self.nodes.len());
        for node in &self.nodes {
            let d = match *node {
                Node::Zero | Node::Input(_) => 0,
                Node::Maj([a, b, c]) => {
                    1 + depths[a.node() as usize]
                        .max(depths[b.node() as usize])
                        .max(depths[c.node() as usize])
                }
            };
            depths.push(d);
        }
        depths[s.node() as usize]
    }

    /// Nodes in creation (≡ topological) order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &Node)> {
        self.nodes.iter().enumerate().map(|(i, n)| (i as u32, n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_and_inputs() {
        let mut mig = Mig::new();
        let a = mig.pi();
        assert_eq!(mig.num_pis(), 1);
        // Both constants are node 0; an input is not.
        assert_eq!(Signal::FALSE.node(), 0);
        assert_eq!(Signal::TRUE.node(), 0);
        assert_ne!(a.node(), 0);
        assert!(!mig.eval(Signal::FALSE, &[true]));
        assert!(mig.eval(Signal::TRUE, &[false]));
    }

    #[test]
    fn and_or_not_behave() {
        let mut mig = Mig::new();
        let a = mig.pi();
        let b = mig.pi();
        let and = mig.and(a, b);
        let or = mig.or(a, b);
        for (x, y) in [(false, false), (false, true), (true, false), (true, true)] {
            assert_eq!(mig.eval(and, &[x, y]), x & y);
            assert_eq!(mig.eval(or, &[x, y]), x | y);
            assert_eq!(mig.eval(!a, &[x, y]), !x);
        }
    }

    #[test]
    fn xor_and_mux() {
        let mut mig = Mig::new();
        let a = mig.pi();
        let b = mig.pi();
        let s = mig.pi();
        let x = mig.xor(a, b);
        // The multiplexer `s ? a : b`.
        let (p, q) = (mig.and(s, a), mig.and(!s, b));
        let m = mig.or(p, q);
        for row in 0..8 {
            let ins = [(row & 1) == 1, (row & 2) == 2, (row & 4) == 4];
            assert_eq!(mig.eval(x, &ins), ins[0] ^ ins[1]);
            assert_eq!(mig.eval(m, &ins), if ins[2] { ins[0] } else { ins[1] });
        }
    }

    #[test]
    fn structural_hashing_reuses_nodes() {
        let mut mig = Mig::new();
        let a = mig.pi();
        let b = mig.pi();
        let n1 = mig.and(a, b);
        let n2 = mig.and(b, a);
        assert_eq!(n1, n2);
        assert_eq!(mig.node_count(&[n1, n2]), 1);
    }

    #[test]
    fn omega_m_axiom_applied_at_creation() {
        let mut mig = Mig::new();
        let a = mig.pi();
        let b = mig.pi();
        assert_eq!(mig.maj(a, a, b), a);
        assert_eq!(mig.maj(a, !a, b), b);
        assert_eq!(mig.maj(Signal::FALSE, Signal::TRUE, b), b);
        assert_eq!(mig.maj(Signal::FALSE, Signal::FALSE, b), Signal::FALSE);
        assert_eq!(mig.maj(Signal::TRUE, Signal::TRUE, b), Signal::TRUE);
    }

    #[test]
    fn psi_inverter_propagation_applied_at_creation() {
        let mut mig = Mig::new();
        let a = mig.pi();
        let b = mig.pi();
        let c = mig.pi();
        let pos = mig.maj(a, b, c);
        let neg = mig.maj(!a, !b, !c);
        assert_eq!(neg, !pos);
        assert_eq!(mig.node_count(&[pos, neg]), 1);
    }

    #[test]
    fn truth_table_matches_eval() {
        let mut mig = Mig::new();
        let a = mig.pi();
        let b = mig.pi();
        let c = mig.pi();
        let f = {
            let ab = mig.and(a, !b);
            mig.maj(ab, b, c)
        };
        let t = mig.tt(f);
        for row in 0..8 {
            let ins = [(row & 1) == 1, (row & 2) == 2, (row & 4) == 4];
            assert_eq!(t.get(row), mig.eval(f, &ins), "row {row}");
        }
    }

    #[test]
    fn eval_rows_is_columnwise_eval() {
        let mut mig = Mig::new();
        let a = mig.pi();
        let b = mig.pi();
        let f = mig.xor(a, b);
        let ra = Row::from_bits([true, true, false, false]);
        let rb = Row::from_bits([true, false, true, false]);
        let out = mig.eval_rows(f, &[ra.clone(), rb.clone()]);
        for col in 0..4 {
            assert_eq!(out.get(col), ra.get(col) ^ rb.get(col));
        }
    }

    #[test]
    fn depth_counts_majority_levels() {
        let mut mig = Mig::new();
        let a = mig.pi();
        let b = mig.pi();
        let c = mig.pi();
        assert_eq!(mig.depth(a), 0);
        let f = {
            let ab = mig.and(a, b);
            mig.or(ab, c)
        };
        assert_eq!(mig.depth(f), 2);
    }

    #[test]
    #[should_panic(expected = "wrong number of inputs")]
    fn eval_with_wrong_arity_panics() {
        let mut mig = Mig::new();
        let a = mig.pi();
        let _ = mig.eval(a, &[]);
    }
}
