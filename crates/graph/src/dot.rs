//! Graphviz DOT export for debugging and documentation.

use std::fmt::Write as _;

use crate::{ChainView, CutSet, EdgeId, PathGraph, ProcessGraph, Tree, TreeView};

/// Renders a tree as a Graphviz `graph`, highlighting cut edges (dashed,
/// red) if a cut is supplied.
///
/// # Examples
///
/// ```
/// use tgp_graph::{dot, Tree};
///
/// # fn main() -> Result<(), tgp_graph::GraphError> {
/// let t = Tree::from_raw(&[1, 2], &[(0, 1, 5)])?;
/// let rendered = dot::tree_to_dot(&t, None);
/// assert!(rendered.contains("graph tree"));
/// # Ok(())
/// # }
/// ```
pub fn tree_to_dot(tree: &Tree, cut: Option<&CutSet>) -> String {
    let mut out = String::from("graph tree {\n  node [shape=circle];\n");
    for (v, w) in tree.node_weights().enumerate() {
        let _ = writeln!(out, "  v{v} [label=\"v{v}\\nw={w}\"];");
    }
    for (i, e) in tree.edges().enumerate() {
        let style = if cut.is_some_and(|c| c.contains(EdgeId::new(i))) {
            ", style=dashed, color=red"
        } else {
            ""
        };
        let _ = writeln!(
            out,
            "  v{} -- v{} [label=\"{}\"{style}];",
            e.a.index(),
            e.b.index(),
            e.weight
        );
    }
    out.push_str("}\n");
    out
}

/// Renders a path graph as a Graphviz `graph`, highlighting cut edges if a
/// cut is supplied.
pub fn path_to_dot(path: &PathGraph, cut: Option<&CutSet>) -> String {
    let mut out = String::from("graph chain {\n  rankdir=LR;\n  node [shape=box];\n");
    for (v, w) in path.node_weights().enumerate() {
        let _ = writeln!(out, "  v{v} [label=\"v{v}\\nw={w}\"];");
    }
    for (i, w) in path.edge_weights().enumerate() {
        let style = if cut.is_some_and(|c| c.contains(EdgeId::new(i))) {
            ", style=dashed, color=red"
        } else {
            ""
        };
        let _ = writeln!(out, "  v{i} -- v{} [label=\"{w}\"{style}];", i + 1);
    }
    out.push_str("}\n");
    out
}

/// Renders a process graph as a Graphviz `graph`, optionally colouring
/// nodes by a part assignment (`part_of[v]` = part index).
///
/// # Panics
///
/// Panics if `part_of` is given but does not cover every node.
pub fn process_to_dot(g: &ProcessGraph, part_of: Option<&[usize]>) -> String {
    if let Some(parts) = part_of {
        assert_eq!(parts.len(), g.len(), "part assignment must cover all nodes");
    }
    const PALETTE: [&str; 8] = [
        "lightblue",
        "lightgreen",
        "lightsalmon",
        "plum",
        "khaki",
        "lightcyan",
        "lightpink",
        "lightgray",
    ];
    let mut out = String::from("graph process {\n  node [shape=ellipse, style=filled];\n");
    for (v, w) in g.node_weights().iter().enumerate() {
        let color = part_of
            .map(|p| PALETTE[p[v] % PALETTE.len()])
            .unwrap_or("white");
        let _ = writeln!(out, "  v{v} [label=\"v{v}\\nw={w}\", fillcolor={color}];");
    }
    for e in g.edges() {
        let crossing = part_of.is_some_and(|p| p[e.a.index()] != p[e.b.index()]);
        let style = if crossing {
            ", style=dashed, color=red"
        } else {
            ""
        };
        let _ = writeln!(
            out,
            "  v{} -- v{} [label=\"{}\"{style}];",
            e.a.index(),
            e.b.index(),
            e.weight
        );
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CutSet;

    #[test]
    fn tree_dot_contains_all_elements() {
        let t = Tree::from_raw(&[1, 2, 3], &[(0, 1, 10), (1, 2, 20)]).unwrap();
        let s = tree_to_dot(&t, None);
        assert!(s.starts_with("graph tree {"));
        assert!(s.contains("v0 -- v1"));
        assert!(s.contains("v1 -- v2"));
        assert!(s.contains("w=3"));
        assert!(!s.contains("dashed"));
    }

    #[test]
    fn tree_dot_marks_cut_edges() {
        let t = Tree::from_raw(&[1, 2, 3], &[(0, 1, 10), (1, 2, 20)]).unwrap();
        let cut = CutSet::new(vec![EdgeId::new(1)]);
        let s = tree_to_dot(&t, Some(&cut));
        assert_eq!(s.matches("dashed").count(), 1);
    }

    #[test]
    fn process_dot_marks_crossing_edges() {
        use crate::ProcessGraph;
        let g = ProcessGraph::from_raw(&[1, 2, 3], &[(0, 1, 4), (1, 2, 5), (2, 0, 6)]).unwrap();
        let plain = process_to_dot(&g, None);
        assert!(plain.contains("graph process"));
        assert!(!plain.contains("dashed"));
        let parts = [0usize, 0, 1];
        let colored = process_to_dot(&g, Some(&parts));
        // Edges (1,2) and (0,2) cross the part boundary.
        assert_eq!(colored.matches("dashed").count(), 2);
        assert!(colored.contains("lightblue"));
    }

    #[test]
    #[should_panic(expected = "cover all nodes")]
    fn process_dot_rejects_short_assignment() {
        use crate::ProcessGraph;
        let g = ProcessGraph::from_raw(&[1, 2], &[(0, 1, 4)]).unwrap();
        process_to_dot(&g, Some(&[0]));
    }

    #[test]
    fn path_dot_contains_all_elements() {
        let p = PathGraph::from_raw(&[1, 2, 3], &[5, 6]).unwrap();
        let cut = CutSet::new(vec![EdgeId::new(0)]);
        let s = path_to_dot(&p, Some(&cut));
        assert!(s.contains("rankdir=LR"));
        assert!(s.contains("v0 -- v1"));
        assert_eq!(s.matches("dashed").count(), 1);
    }
}
