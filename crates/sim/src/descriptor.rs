//! Typed circuit descriptors: one *derived* structural source of truth.
//!
//! A [`CircuitDescriptor`] names a circuit's pins, its typed component
//! counts and its children (layers, lanes, traverse steps …), composed
//! hierarchically — the PG core's descriptor contains a NormTree
//! descriptor, which contains per-layer descriptors. Crucially the counts
//! are **built from the netlist**, not beside it: circuit constructors
//! bracket each logical block with [`crate::netlist::Mark`]s and the
//! [`DescriptorBuilder`] walks the bracketed component/register slices.
//! There is no hand-kept arithmetic to drift.
//!
//! Downstream, `coopmc-analyze` derives dependence DAGs and the
//! `descriptor-drift` verify section from these descriptors, `coopmc-hw`
//! prices them structurally, and `coopmc verify --export-schematic` renders
//! them as graphviz `.dot` and stable JSON schematics.

use coopmc_obs::json;

use crate::netlist::{ComponentCensus, Mark, Netlist, Wire};

/// Direction of a [`Pin`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PinDir {
    /// Driven from outside the circuit (a [`Netlist::input`] wire).
    Input,
    /// Observed from outside the circuit (driven inside it).
    Output,
}

/// A named connection point of a descriptor node.
#[derive(Debug, Clone)]
pub struct Pin {
    /// Pin name, unique within its node (e.g. `"threshold"`).
    pub name: String,
    /// The netlist wire the pin is bonded to.
    pub wire: Wire,
    /// Input or output.
    pub dir: PinDir,
}

/// A typed, hierarchical description of a circuit, derived from its
/// [`Netlist`] (see the module docs).
///
/// `counts` and `luts` cover only the hardware this node *itself* owns —
/// what its bracket instantiated minus what its children's brackets
/// claimed. [`CircuitDescriptor::census`] folds the whole subtree.
#[derive(Debug, Clone)]
pub struct CircuitDescriptor {
    /// Instance name (e.g. `"norm-tree-8"`, `"layer1"`).
    pub name: String,
    /// Structural kind (e.g. `"norm-tree"`, `"max-layer"`, `"factor-chain"`).
    pub kind: &'static str,
    /// Named structural parameters (widths, depths, LUT geometry …).
    pub params: Vec<(&'static str, usize)>,
    /// Named pins of this node.
    pub pins: Vec<Pin>,
    /// Component counts owned by this node (children excluded).
    pub counts: ComponentCensus,
    /// LUT ROM ids owned by this node, in build order.
    pub luts: Vec<&'static str>,
    /// Child descriptors, in build order.
    pub children: Vec<CircuitDescriptor>,
}

impl CircuitDescriptor {
    /// Total census of this node and every descendant.
    pub fn census(&self) -> ComponentCensus {
        let mut c = self.counts;
        for child in &self.children {
            c.absorb(child.census());
        }
        c
    }

    /// All LUT ids in the subtree, in build order.
    pub fn all_luts(&self) -> Vec<&'static str> {
        let mut ids = self.luts.clone();
        for child in &self.children {
            ids.extend(child.all_luts());
        }
        ids
    }

    /// Direct child by name.
    pub fn child(&self, name: &str) -> Option<&CircuitDescriptor> {
        self.children.iter().find(|c| c.name == name)
    }

    /// Direct children of a given kind, in build order.
    pub fn children_of_kind(&self, kind: &str) -> Vec<&CircuitDescriptor> {
        self.children.iter().filter(|c| c.kind == kind).collect()
    }

    /// Named parameter value.
    pub fn param(&self, name: &str) -> Option<usize> {
        self.params
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// Pin by name on this node.
    pub fn pin(&self, name: &str) -> Option<&Pin> {
        self.pins.iter().find(|p| p.name == name)
    }

    /// Every node in the subtree with its `/`-joined path (root path is the
    /// root's name), depth-first in build order.
    pub fn flatten(&self) -> Vec<(String, &CircuitDescriptor)> {
        let mut out = Vec::new();
        self.flatten_into(&self.name.clone(), &mut out);
        out
    }

    fn flatten_into<'a>(&'a self, path: &str, out: &mut Vec<(String, &'a CircuitDescriptor)>) {
        out.push((path.to_string(), self));
        for child in &self.children {
            let p = format!("{path}/{}", child.name);
            child.flatten_into(&p, out);
        }
    }

    /// Every pin in the subtree as `(node path, pin)`, in build order.
    pub fn all_pins(&self) -> Vec<(String, &Pin)> {
        self.flatten()
            .into_iter()
            .flat_map(|(path, node)| node.pins.iter().map(move |p| (path.clone(), p)))
            .collect()
    }

    /// Graphviz rendering of the hierarchy: one record node per descriptor
    /// with its kind and owned counts, ellipse nodes for pins. Output is
    /// deterministic (build order only) so golden diffs stay reviewable.
    pub fn to_dot(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!("digraph \"{}\" {{\n", self.name));
        s.push_str("  rankdir=LR;\n");
        s.push_str("  node [shape=record, fontname=\"monospace\"];\n");
        self.dot_node(&self.name.clone(), &mut s);
        s.push_str("}\n");
        s
    }

    fn dot_node(&self, path: &str, s: &mut String) {
        let c = self.counts;
        s.push_str(&format!(
            "  \"{path}\" [label=\"{{{}|{}|add {} cmp {} mux {} lut {} reg {}}}\"];\n",
            self.name, self.kind, c.adders, c.comparators, c.muxes, c.luts, c.registers
        ));
        for pin in &self.pins {
            let dir = match pin.dir {
                PinDir::Input => "in",
                PinDir::Output => "out",
            };
            s.push_str(&format!(
                "  \"{path}:{0}\" [shape=ellipse, label=\"{0} ({dir} w{1})\"];\n",
                pin.name, pin.wire
            ));
            match pin.dir {
                PinDir::Input => s.push_str(&format!("  \"{path}:{}\" -> \"{path}\";\n", pin.name)),
                PinDir::Output => {
                    s.push_str(&format!("  \"{path}\" -> \"{path}:{}\";\n", pin.name))
                }
            }
        }
        for child in &self.children {
            let child_path = format!("{path}/{}", child.name);
            s.push_str(&format!("  \"{path}\" -> \"{child_path}\";\n"));
            child.dot_node(&child_path, s);
        }
    }

    /// Stable JSON schematic (pretty-printed, build order, no maps) for
    /// machine consumption and golden-file review.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        self.json_node(0, &mut s);
        s.push('\n');
        s
    }

    fn json_node(&self, indent: usize, s: &mut String) {
        let pad = "  ".repeat(indent);
        let pad1 = "  ".repeat(indent + 1);
        s.push_str("{\n");
        s.push_str(&format!("{pad1}\"name\": "));
        json::write_str(s, &self.name);
        s.push_str(",\n");
        s.push_str(&format!("{pad1}\"kind\": \"{}\",\n", self.kind));
        s.push_str(&format!("{pad1}\"params\": {{"));
        for (i, (k, v)) in self.params.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!("\"{k}\": {v}"));
        }
        s.push_str("},\n");
        s.push_str(&format!("{pad1}\"pins\": ["));
        for (i, p) in self.pins.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let dir = match p.dir {
                PinDir::Input => "in",
                PinDir::Output => "out",
            };
            s.push_str("{\"name\": ");
            json::write_str(s, &p.name);
            s.push_str(&format!(", \"wire\": {}, \"dir\": \"{dir}\"}}", p.wire));
        }
        s.push_str("],\n");
        let c = self.counts;
        s.push_str(&format!(
            "{pad1}\"counts\": {{\"adders\": {}, \"comparators\": {}, \"muxes\": {}, \"luts\": {}, \"registers\": {}}},\n",
            c.adders, c.comparators, c.muxes, c.luts, c.registers
        ));
        s.push_str(&format!("{pad1}\"luts\": ["));
        for (i, id) in self.luts.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!("\"{id}\""));
        }
        s.push_str("],\n");
        s.push_str(&format!("{pad1}\"children\": ["));
        if self.children.is_empty() {
            s.push(']');
        } else {
            for (i, child) in self.children.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                s.push('\n');
                s.push_str(&pad1);
                s.push_str("  ");
                child.json_node(indent + 2, s);
            }
            s.push('\n');
            s.push_str(&format!("{pad1}]"));
        }
        s.push('\n');
        s.push_str(&format!("{pad}}}"));
    }
}

/// Builds a [`CircuitDescriptor`] tree while its [`Netlist`] is being
/// constructed: `begin`/`end` bracket each logical block, and the popped
/// node's counts are read back from the bracketed netlist slice.
#[derive(Debug)]
pub struct DescriptorBuilder {
    frames: Vec<Frame>,
}

#[derive(Debug)]
struct Frame {
    desc: CircuitDescriptor,
    start: Mark,
    child_spans: Vec<(Mark, Mark)>,
}

impl Frame {
    fn new(netlist: &Netlist, name: String, kind: &'static str) -> Self {
        Self {
            desc: CircuitDescriptor {
                name,
                kind,
                params: Vec::new(),
                pins: Vec::new(),
                counts: ComponentCensus::default(),
                luts: Vec::new(),
                children: Vec::new(),
            },
            start: netlist.mark(),
            child_spans: Vec::new(),
        }
    }

    fn close(mut self, netlist: &Netlist) -> (CircuitDescriptor, (Mark, Mark)) {
        let end = netlist.mark();
        self.desc.counts = netlist.census_between(self.start, end, &self.child_spans);
        self.desc.luts = netlist.lut_ids_between(self.start, end, &self.child_spans);
        (self.desc, (self.start, end))
    }
}

impl DescriptorBuilder {
    /// Open the root node. Everything instantiated in `netlist` from this
    /// moment until [`DescriptorBuilder::finish`] belongs to the tree.
    pub fn new(netlist: &Netlist, name: impl Into<String>, kind: &'static str) -> Self {
        Self {
            frames: vec![Frame::new(netlist, name.into(), kind)],
        }
    }

    /// Open a child node of the innermost open node.
    pub fn begin(&mut self, netlist: &Netlist, name: impl Into<String>, kind: &'static str) {
        self.frames.push(Frame::new(netlist, name.into(), kind));
    }

    /// Close the innermost open node, deriving its owned counts from the
    /// netlist slice its bracket covered.
    ///
    /// # Panics
    ///
    /// Panics when only the root is open (close that with `finish`).
    pub fn end(&mut self, netlist: &Netlist) {
        assert!(self.frames.len() > 1, "end() with no open child node");
        let frame = self.frames.pop().expect("frame stack");
        let (desc, span) = frame.close(netlist);
        let parent = self.frames.last_mut().expect("root frame");
        parent.desc.children.push(desc);
        parent.child_spans.push(span);
    }

    /// Record a structural parameter on the innermost open node.
    pub fn param(&mut self, name: &'static str, value: usize) {
        let frame = self.frames.last_mut().expect("open frame");
        frame.desc.params.push((name, value));
    }

    /// Declare an input pin on the innermost open node.
    pub fn pin_in(&mut self, name: impl Into<String>, wire: Wire) {
        self.pin(name.into(), wire, PinDir::Input);
    }

    /// Declare an output pin on the innermost open node.
    pub fn pin_out(&mut self, name: impl Into<String>, wire: Wire) {
        self.pin(name.into(), wire, PinDir::Output);
    }

    fn pin(&mut self, name: String, wire: Wire, dir: PinDir) {
        let frame = self.frames.last_mut().expect("open frame");
        frame.desc.pins.push(Pin { name, wire, dir });
    }

    /// Close the root and return the finished tree.
    ///
    /// # Panics
    ///
    /// Panics if a child node is still open.
    pub fn finish(mut self, netlist: &Netlist) -> CircuitDescriptor {
        assert!(
            self.frames.len() == 1,
            "finish() with {} unclosed child node(s)",
            self.frames.len() - 1
        );
        let (desc, _) = self.frames.pop().expect("root frame").close(netlist);
        desc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_layer() -> (Netlist, CircuitDescriptor) {
        let mut n = Netlist::new();
        let mut b = DescriptorBuilder::new(&n, "toy", "toy");
        let a = n.input();
        let c = n.input();
        b.pin_in("a", a);
        b.pin_in("c", c);
        b.begin(&n, "sum", "sum-layer");
        let s = n.add(a, c);
        b.end(&n);
        b.begin(&n, "cmp", "max-layer");
        let m = n.max(s, a);
        let q = n.register(m);
        b.end(&n);
        let out = n.sub(q, s);
        b.pin_out("out", out);
        b.param("width", 2);
        let d = b.finish(&n);
        (n, d)
    }

    #[test]
    fn builder_derives_counts_from_netlist_slices() {
        let (n, d) = two_layer();
        assert_eq!(d.children.len(), 2);
        let sum = d.child("sum").expect("sum child");
        assert_eq!(sum.counts.adders, 1);
        assert_eq!(sum.counts.registers, 0);
        let cmp = d.child("cmp").expect("cmp child");
        assert_eq!(cmp.counts.comparators, 1);
        assert_eq!(cmp.counts.registers, 1);
        // Root owns only the trailing sub.
        assert_eq!(d.counts.adders, 1);
        // Subtree census equals the whole-netlist walk.
        assert_eq!(d.census(), n.census());
        assert_eq!(d.param("width"), Some(2));
    }

    #[test]
    fn flatten_paths_and_pins() {
        let (_, d) = two_layer();
        let paths: Vec<String> = d.flatten().into_iter().map(|(p, _)| p).collect();
        assert_eq!(paths, vec!["toy", "toy/sum", "toy/cmp"]);
        let pins = d.all_pins();
        assert_eq!(pins.len(), 3);
        assert_eq!(pins[0].0, "toy");
        assert_eq!(pins[0].1.name, "a");
    }

    #[test]
    fn exports_are_deterministic() {
        let (_, d1) = two_layer();
        let (_, d2) = two_layer();
        assert_eq!(d1.to_dot(), d2.to_dot());
        assert_eq!(d1.to_json(), d2.to_json());
        assert!(d1.to_dot().contains("digraph \"toy\""));
        assert!(d1.to_dot().contains("\"toy/cmp\""));
        assert!(d1.to_json().contains("\"kind\": \"max-layer\""));
    }

    #[test]
    #[should_panic(expected = "unclosed")]
    fn unbalanced_begin_panics_on_finish() {
        let n = Netlist::new();
        let mut b = DescriptorBuilder::new(&n, "x", "x");
        b.begin(&n, "child", "c");
        let _ = b.finish(&n);
    }
}
