//! Wire-format round trips and rejection behaviour for the in-workspace
//! JSON layer (`tgp_graph::json`), which replaces the former serde
//! derives. The encoded shapes must stay stable: the CLI, the HTTP
//! service and any stored documents all speak them.

use tgp_graph::json::{FromJson, ToJson, Value};
use tgp_graph::{ChainView, CutSet, EdgeId, NodeId, PathGraph, ProcessGraph, Tree, Weight};

#[test]
fn path_graph_roundtrips_through_text() {
    let p = PathGraph::from_raw(&[2, 3, 5, 7], &[10, 20, 30]).unwrap();
    let text = p.to_json().to_string();
    let back = PathGraph::from_json(&Value::parse(&text).unwrap()).unwrap();
    assert_eq!(back, p);
    // The wire shape is the documented one.
    let v = Value::parse(&text).unwrap();
    assert_eq!(v["node_weights"].as_array().unwrap().len(), 4);
    assert_eq!(v["edge_weights"].as_array().unwrap().len(), 3);
    assert_eq!(v["node_weights"][2].as_u64(), Some(5));
}

#[test]
fn tree_roundtrips_through_text() {
    let t = Tree::from_raw(&[1, 2, 3, 4], &[(0, 1, 10), (0, 2, 20), (2, 3, 30)]).unwrap();
    let text = t.to_json().pretty();
    let back = Tree::from_json(&Value::parse(&text).unwrap()).unwrap();
    assert_eq!(back, t);
    let v = Value::parse(&text).unwrap();
    assert_eq!(v["edges"][1]["a"].as_u64(), Some(0));
    assert_eq!(v["edges"][1]["b"].as_u64(), Some(2));
    assert_eq!(v["edges"][1]["weight"].as_u64(), Some(20));
}

#[test]
fn process_graph_roundtrips_through_text() {
    let g = ProcessGraph::from_raw(&[1, 1, 1], &[(0, 1, 5), (1, 2, 7), (2, 0, 2)]).unwrap();
    let text = g.to_json().to_string();
    let back = ProcessGraph::from_json(&Value::parse(&text).unwrap()).unwrap();
    assert_eq!(back, g);
}

#[test]
fn cut_set_roundtrips_and_stays_sorted() {
    let cut = CutSet::new(vec![EdgeId::new(9), EdgeId::new(2), EdgeId::new(9)]);
    let v = Value::parse(&cut.to_json().to_string()).unwrap();
    assert_eq!(v["edges"][0].as_u64(), Some(2));
    assert_eq!(v["edges"][1].as_u64(), Some(9));
    let back = CutSet::from_json(&v).unwrap();
    assert_eq!(back, cut);
}

#[test]
fn scalars_encode_transparently() {
    assert_eq!(Weight::new(42).to_json().to_string(), "42");
    assert_eq!(NodeId::new(3).to_json().to_string(), "3");
    assert_eq!(
        Weight::from_json(&Value::parse("17").unwrap()).unwrap(),
        Weight::new(17)
    );
    assert!(Weight::from_json(&Value::parse("-1").unwrap()).is_err());
    assert!(Weight::from_json(&Value::parse("\"5\"").unwrap()).is_err());
}

#[test]
fn unknown_fields_are_tolerated() {
    let v = Value::parse(r#"{"node_weights": [1, 2], "edge_weights": [3], "comment": "extra"}"#)
        .unwrap();
    let p = PathGraph::from_json(&v).unwrap();
    assert_eq!(p.len(), 2);
}

#[test]
fn decoding_rejects_shape_errors() {
    for bad in [
        r#"{"edge_weights": [1]}"#,                   // missing node_weights
        r#"{"node_weights": 3, "edge_weights": []}"#, // not an array
        r#"{"node_weights": [1, "x"], "edge_weights": [1]}"#, // non-numeric weight
        r#"{"node_weights": [1, -2], "edge_weights": [1]}"#, // negative weight
        r#"[1, 2, 3]"#,                               // not an object
        "null",
    ] {
        let v = Value::parse(bad).unwrap();
        assert!(PathGraph::from_json(&v).is_err(), "should reject {bad}");
    }
}

#[test]
fn decoding_rejects_invariant_violations() {
    // Wrong edge count for a path.
    let v = Value::parse(r#"{"node_weights": [1, 2, 3], "edge_weights": [1]}"#).unwrap();
    assert!(PathGraph::from_json(&v).is_err());

    // Cycle in a "tree".
    let v = Value::parse(
        r#"{"node_weights": [1, 1, 1],
            "edges": [{"a": 0, "b": 1, "weight": 1}, {"a": 1, "b": 0, "weight": 1}]}"#,
    )
    .unwrap();
    assert!(Tree::from_json(&v).is_err());

    // Disconnected process graph.
    let v = Value::parse(
        r#"{"node_weights": [1, 1, 1, 1],
            "edges": [{"a": 0, "b": 1, "weight": 1}, {"a": 2, "b": 3, "weight": 1}]}"#,
    )
    .unwrap();
    assert!(ProcessGraph::from_json(&v).is_err());

    // Endpoint out of range.
    let v = Value::parse(r#"{"node_weights": [1, 1], "edges": [{"a": 0, "b": 5, "weight": 1}]}"#)
        .unwrap();
    assert!(Tree::from_json(&v).is_err());
}

#[test]
fn malformed_text_is_an_error_not_a_panic() {
    for bad in [
        "",
        "{",
        r#"{"node_weights": [1, 2], "edge_weights": [3]"#,
        "\u{0}",
        "{\"node_weights\": [1e999]}",
    ] {
        assert!(Value::parse(bad).is_err(), "should reject {bad:?}");
    }
}

#[test]
fn weights_keep_u64_fidelity() {
    let big = u64::MAX / 2;
    let p = PathGraph::from_raw(&[big, 1], &[7]).unwrap();
    let back = PathGraph::from_json(&Value::parse(&p.to_json().to_string()).unwrap()).unwrap();
    assert_eq!(back.node_weight(NodeId::new(0)), Weight::new(big));
}
