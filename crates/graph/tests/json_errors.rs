//! Error-path coverage for the JSON edge-list interchange format: the
//! analysis service feeds untrusted request bodies through these parsers,
//! so every malformed shape must fail with a clean `JsonError` (or
//! `GraphError` at graph-build time), never a panic.

use graphio_graph::json::{parse, parse_request, JsonValue, MAX_DEPTH};
use graphio_graph::{CompGraph, EdgeListGraph, GraphError, OpKind};

fn valid() -> &'static str {
    r#"{"ops":["Input","Input","Add"],"edges":[[0,2],[1,2]]}"#
}

#[test]
fn valid_document_parses() {
    let el = EdgeListGraph::from_json(valid()).unwrap();
    assert_eq!(el.ops.len(), 3);
    assert_eq!(el.edges, vec![(0, 2), (1, 2)]);
}

#[test]
fn truncated_inputs_fail_with_offsets() {
    let full = valid();
    // Every proper prefix must fail cleanly — nothing panics, nothing
    // half-parses.
    for end in 0..full.len() {
        let err = EdgeListGraph::from_json(&full[..end])
            .expect_err(&format!("prefix of {end} bytes must fail"));
        assert!(!err.message.is_empty());
    }
}

#[test]
fn trailing_garbage_is_rejected() {
    let doc = format!("{} trailing", valid());
    let err = EdgeListGraph::from_json(&doc).unwrap_err();
    assert!(err.message.contains("trailing"), "{err}");
    assert!(err.offset > 0);
}

#[test]
fn non_numeric_ids_are_rejected() {
    for bad in [
        r#"{"ops":["Input","Add"],"edges":[["0",1]]}"#,
        r#"{"ops":["Input","Add"],"edges":[[0,null]]}"#,
        r#"{"ops":["Input","Add"],"edges":[[0.5,1]]}"#,
        r#"{"ops":["Input","Add"],"edges":[[-1,1]]}"#,
        r#"{"ops":["Input","Add"],"edges":[[0,4294967296]]}"#,
    ] {
        let err = EdgeListGraph::from_json(bad).unwrap_err();
        assert!(err.message.contains("u32"), "{bad}: {err}");
    }
}

#[test]
fn malformed_ops_are_rejected() {
    for bad in [
        r#"{"ops":["NotAnOp"],"edges":[]}"#,
        r#"{"ops":[42],"edges":[]}"#,
        r#"{"ops":[{"Custom":"x"}],"edges":[]}"#,
        r#"{"ops":[{"Custom":-3}],"edges":[]}"#,
    ] {
        assert!(EdgeListGraph::from_json(bad).is_err(), "{bad}");
    }
}

#[test]
fn missing_sections_are_rejected() {
    assert!(EdgeListGraph::from_json(r#"{"edges":[]}"#).is_err());
    assert!(EdgeListGraph::from_json(r#"{"ops":[]}"#).is_err());
    assert!(EdgeListGraph::from_json(r#"[]"#).is_err());
}

#[test]
fn self_loops_fail_at_graph_build() {
    // The edge list parses (the format is just pairs) but the DAG
    // invariant rejects it.
    let el = EdgeListGraph::from_json(r#"{"ops":["Add"],"edges":[[0,0]]}"#).unwrap();
    assert_eq!(
        CompGraph::try_from(el).unwrap_err(),
        GraphError::SelfLoop { id: 0 }
    );
}

#[test]
fn out_of_range_edges_fail_at_graph_build() {
    let el = EdgeListGraph::from_json(r#"{"ops":["Input","Add"],"edges":[[0,7]]}"#).unwrap();
    assert_eq!(
        CompGraph::try_from(el).unwrap_err(),
        GraphError::InvalidVertex { id: 7, n: 2 }
    );
}

#[test]
fn duplicate_edges_are_parallel_edges_not_errors() {
    // `x * x` consumes the same operand twice: the format must preserve
    // duplicate pairs, and the graph must keep both.
    let el = EdgeListGraph::from_json(r#"{"ops":["Input","Mul"],"edges":[[0,1],[0,1]]}"#).unwrap();
    assert_eq!(el.edges, vec![(0, 1), (0, 1)]);
    let g = CompGraph::try_from(el).unwrap();
    assert_eq!(g.num_edges(), 2);
    assert_eq!(g.in_degree(1), 2);
}

#[test]
fn from_json_value_matches_from_json() {
    let doc = parse(valid()).unwrap();
    assert_eq!(
        EdgeListGraph::from_json_value(&doc).unwrap(),
        EdgeListGraph::from_json(valid()).unwrap()
    );
    // A schema mismatch through the value path too.
    let bad = parse(r#"{"ops":"nope","edges":[]}"#).unwrap();
    assert!(EdgeListGraph::from_json_value(&bad).is_err());
}

#[test]
fn deep_nesting_and_odd_scalars_do_not_panic() {
    let deep = format!("{}1{}", "[".repeat(2000), "]".repeat(2000));
    let err = parse(&deep).unwrap_err();
    assert_eq!(
        err.offset, MAX_DEPTH,
        "refused at the first bracket too deep"
    );
    assert!(err.message.contains("nesting"), "{err}");
    for odd in ["1e309", "-0", "\"\\u0041\"", "\"\\uZZZZ\"", "nul", "tru"] {
        let _ = parse(odd); // ok or clean error, never a panic
    }
    assert_eq!(
        EdgeListGraph::from_json(r#"{"ops":[],"edges":[]}"#).unwrap(),
        EdgeListGraph {
            ops: vec![],
            edges: vec![]
        }
    );
    let _ = OpKind::from_json(&parse(r#"{"Custom":1.5}"#).unwrap());
}

#[test]
fn nesting_is_capped_at_the_bracket_that_goes_too_deep() {
    let at_cap = format!("{}1{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
    assert!(parse(&at_cap).is_ok());
    let over = format!(
        "{}1{}",
        "[".repeat(MAX_DEPTH + 1),
        "]".repeat(MAX_DEPTH + 1)
    );
    assert_eq!(
        parse(&over).unwrap_err().to_string(),
        format!("nesting deeper than {MAX_DEPTH} levels (at byte {MAX_DEPTH})")
    );
    // A body far past the cap is refused without recursing into it, by
    // every reader.
    let hostile = "[".repeat(20_000);
    assert!(parse(&hostile).is_err());
    assert!(EdgeListGraph::from_json(&hostile).is_err());
    assert!(parse_request(&hostile).is_err());
    let in_ops = format!("{{\"ops\":[{hostile}");
    assert_eq!(
        EdgeListGraph::from_json(&in_ops).unwrap_err(),
        parse(&in_ops).unwrap_err()
    );
}

// ---------------------------------------------------------------------
// Differential: the byte readers against the tree reference
// ---------------------------------------------------------------------

/// The reference for a bare edge-list document: the tree parser, the
/// value-level schema, then graph validation.
fn reference(input: &str) -> Result<CompGraph, String> {
    let doc = parse(input).map_err(|e| e.to_string())?;
    build(EdgeListGraph::from_json_value(&doc))
}

/// The reference for a request document: its `"graph"` member when it
/// has one, else the document itself.
fn reference_request(input: &str) -> Result<CompGraph, String> {
    let doc = parse(input).map_err(|e| e.to_string())?;
    build(EdgeListGraph::from_json_value(
        doc.get("graph").unwrap_or(&doc),
    ))
}

fn build(el: Result<EdgeListGraph, graphio_graph::json::JsonError>) -> Result<CompGraph, String> {
    let el = el.map_err(|e| e.to_string())?;
    CompGraph::try_from(el).map_err(|e| e.to_string())
}

fn typed(input: &str) -> Result<CompGraph, String> {
    build(EdgeListGraph::from_json(input))
}

fn typed_request(input: &str) -> Result<CompGraph, String> {
    let doc = parse_request(input).map_err(|e| e.to_string())?;
    build(doc.into_edge_list())
}

/// Both byte readers give the reference's graph or its exact error.
fn assert_agree(input: &str) {
    assert_eq!(typed(input), reference(input), "bare document {input:?}");
    assert_eq!(
        typed_request(input),
        reference_request(input),
        "request document {input:?}"
    );
}

const SHORT: &str = r#"{"ops":["Input",{"Custom":7},"Add"],"edges":[[0,2],[1,2]]}"#;

#[test]
fn readers_agree_on_every_prefix_and_single_byte_deletion() {
    assert!(typed(SHORT).is_ok());
    for end in 0..=SHORT.len() {
        assert_agree(&SHORT[..end]);
    }
    for i in 0..SHORT.len() {
        assert_agree(&format!("{}{}", &SHORT[..i], &SHORT[i + 1..]));
    }
    let wrapped = format!(r#"{{"memories":[2],"graph":{SHORT}}}"#);
    for end in 0..=wrapped.len() {
        assert_agree(&wrapped[..end]);
    }
}

#[test]
fn readers_agree_on_endpoint_spellings() {
    for x in [
        "1.0",
        "1e0",
        "-0",
        "007",
        "0.5",
        "-1",
        "4294967295",
        "4294967296",
        "99999999999999999999999",
        "1E0",
        "0e5",
        "1.",
        "-.5",
        "1-2",
        "1e",
        "-",
        "\"1\"",
        "null",
        "[1]",
    ] {
        assert_agree(&format!(
            r#"{{"ops":["Input","Input","Add"],"edges":[[{x},2]]}}"#
        ));
        assert_agree(&format!(
            r#"{{"ops":["Input","Input","Add"],"edges":[[0,{x}]]}}"#
        ));
        assert_agree(&format!(r#"{{"ops":[{{"Custom":{x}}}],"edges":[]}}"#));
    }
    assert!(typed(r#"{"ops":["Input","Input","Add"],"edges":[[1.0,2],[-0,2]]}"#).is_ok());
}

#[test]
fn readers_agree_on_op_spellings() {
    for op in [
        r#""In\u0070ut""#,
        r#"{"Custom":7}"#,
        r#"{"Custom":-3}"#,
        r#"{"Cust\u006fm":4}"#,
        r#"{"x":[1,{"y":2}],"Custom":2,"Custom":"y"}"#,
        r#"{"Custom":"x","Custom":2}"#,
        r#"{"Custom":1.5}"#,
        r#"{}"#,
        r#"42"#,
        r#"null"#,
        r#"["Input"]"#,
        r#""Nope""#,
        r#""Add\n""#,
        r#""Ïnput""#,
    ] {
        assert_agree(&format!(r#"{{"ops":["Input",{op}],"edges":[[0,1]]}}"#));
    }
}

#[test]
fn readers_agree_on_member_order_duplicates_and_whitespace() {
    for doc in [
        r#"{"edges":[[0,1]],"ops":["Input","Add"]}"#,
        r#"{"edges":[[0]],"ops":["Nope"]}"#,
        r#"{"edges":5,"ops":[7]}"#,
        r#"{"ops":["Input","Add"],"edges":[[0,1]],"ops":["Nope"],"edges":5}"#,
        r#"{"ops":5,"ops":["Input"],"edges":[]}"#,
        r#"{"ops":["Input"],"edges":[],"edges":[[0,0]]}"#,
        r#"{"x":{"ops":[]},"ops":["Input","Add"],"edges":[[0,1],[0,1]]}"#,
        "{ \"ops\" : [ \"Input\" , \"Add\" ] , \"edges\" : [ [ 0 , 1 ] ] }",
        "\n{\t\"ops\":\r[\"Input\",\"Add\"],\"edges\":[[\n0\t,\r1\n]\t]}\n",
        r#"{"ops":["Input","Add"],"edges":[[0,1,2]]}"#,
        r#"{"ops":["Input","Add"],"edges":[[0,1],[5]]}"#,
        r#"{"ops":["Input","Add"],"edges":[[0,1],[1,0]]}"#,
        r#"{"ops":["Nope"],"edges":[[0,1]]} x"#,
        r#"{"ops":["Nope"],"edges":[[0,1]],}"#,
        r#"{"ops":["Nope"],"edges":[[0,1]]"#,
        r#"{"ops":["Nope"],"edges":[[0,"x]]}"#,
        r#"{"ops":["Nope"],"edges":[[0,1]] "x":1}"#,
        r#"{"ops":["Nope"],"edges":[[0,tru]]}"#,
        r#"{"ops":[],"edges":[]}"#,
        r#"{}"#,
        r#"[]"#,
        r#""text""#,
        "5",
        "",
    ] {
        assert_agree(doc);
    }
}

#[test]
fn readers_agree_on_the_graph_member() {
    for doc in [
        r#"{"graph":null}"#,
        r#"{"graph":5}"#,
        r#"{"graph":[]}"#,
        r#"{"graph":5,"ops":["Input"],"edges":[]}"#,
        r#"{"ops":["Input"],"edges":[],"graph":{"ops":["Nope"],"edges":[]}}"#,
        r#"{"graph":{"ops":["Input"],"edges":[]},"graph":5}"#,
        r#"{"graph":{"graph":{"ops":["Input"],"edges":[]}}}"#,
        r#"{"graph":{"ops":["Input","Add"],"edges":[[0,1]]},"memories":[2,4],"no_sim":true}"#,
    ] {
        assert_agree(doc);
    }
}

/// A deeply nested value anywhere in a graph document gets the
/// reference's nesting error, at the same byte.
#[test]
fn readers_agree_on_nesting_past_the_cap() {
    let deep = "[".repeat(MAX_DEPTH + 4);
    for doc in [
        format!(r#"{{"ops":[{deep}"#),
        format!(r#"{{"ops":[{{"Custom":{deep}"#),
        format!(r#"{{"ops":[],"edges":[[0,{deep}"#),
        format!(r#"{{"graph":{{"x":{deep}"#),
        format!(r#"{{"graphs":[{deep}"#),
    ] {
        assert_agree(&doc);
    }
}

/// Batch entries read like top-level documents, keep their source text,
/// and leave the other members to the generic reader.
#[test]
fn batch_entries_match_the_reference_entries() {
    let body = r#"{"memories":[2], "graphs":[ "ab12",
        {"graph":{"ops":["Input","Add"],"edges":[[0,1]]}} ,{"ops":["Input"],"edges":[[0,0]]},
        5, {"ops":[],"edges":[]}], "graphs":"ignored"}"#;
    let doc = parse_request(body).unwrap();
    let reference = parse(body).unwrap();
    assert_eq!(doc.rest.get("memories"), reference.get("memories"));
    assert!(doc.rest.get("graphs").is_none(), "graph members are typed");
    let entries = doc.graphs.unwrap();
    let expected = reference
        .get("graphs")
        .and_then(JsonValue::as_array)
        .unwrap();
    assert_eq!(entries.len(), expected.len());
    for (entry, value) in entries.into_iter().zip(expected) {
        assert_eq!(&parse(entry.raw).unwrap(), value, "raw text is the element");
        assert_eq!(entry.doc.rest.as_str(), value.as_str());
        let graph = value.get("graph").unwrap_or(value);
        assert_eq!(
            build(entry.doc.into_edge_list()),
            build(EdgeListGraph::from_json_value(graph))
        );
    }
    assert!(parse_request(r#"{"graphs":{"a":1},"graphs":[]}"#)
        .unwrap()
        .graphs
        .is_none());
}
