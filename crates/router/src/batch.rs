//! `POST /batch` scatter/gather: split a batch by ring owner, forward the
//! sub-batches, and reassemble the byte-exact single-node response.
//!
//! ## The byte-equality contract
//!
//! A single node answers `POST /batch` with the *concatenation of the
//! per-graph `/analyze` bodies* — each a one-line JSON document with a
//! trailing newline, in request order. That framing is what makes
//! scatter/gather loss-free: a sub-batch response splits back into
//! per-entry bodies on newline boundaries, and reassembling them at the
//! entries' original indices reproduces the exact bytes the single node
//! would have produced, because each per-entry body is a deterministic
//! function of (graph structure, sweep spec) alone — independent of which
//! backend computed it, its cache state, and its thread count (the
//! engine's bit-identical guarantees).
//!
//! ## Blame remapping
//!
//! A batch fails whole on its first bad entry, blamed by index
//! (`graphs[i]: ...`). Inside a sub-batch the index is sub-batch-local,
//! so the router remaps it through the split: the globally first failing
//! entry is the first failure of *its own* sub-batch (order within a
//! group preserves request order), so the minimum remapped index over all
//! failing groups — and over entries the router itself rejected while
//! splitting — is exactly the entry a single node would have blamed.

use crate::ring::Ring;
use graphio_graph::json::JsonValue;
use graphio_graph::{Fingerprint, FingerprintMemo};
use graphio_service::analysis::{parse_graph_doc, AnalyzeSpec};
use graphio_service::client::batch_blame_index;

/// One owner's share of a batch: the entries it will analyze, each tagged
/// with its index in the caller's request.
#[derive(Debug)]
pub struct Group {
    /// Ring backend index the group is destined for.
    pub owner: usize,
    /// Fingerprint used for the failover sequence (the group's first
    /// entry; all entries share the owner by construction).
    pub route_fp: Fingerprint,
    /// `(original index, serialized entry JSON)` in request order.
    pub entries: Vec<(usize, String)>,
}

/// An entry the router rejected while splitting (unparseable graph or
/// malformed fingerprint): `(original index, status, full error message)`
/// — the same message a single node would produce for that entry.
pub type LocalError = (usize, u16, String);

/// Splits batch entries by ring owner, preserving request order within
/// each group. Entries that fail local parsing are reported as
/// [`LocalError`]s instead of being grouped; the caller still scatters
/// the valid groups so an *earlier* server-side failure (e.g. an unknown
/// fingerprint) can win the blame race exactly as it would single-node.
/// Inline graphs are fingerprinted through `memo`, as `/analyze` routing
/// does.
pub fn split(
    entries: &[JsonValue],
    ring: &Ring,
    memo: &FingerprintMemo,
) -> (Vec<Group>, Vec<LocalError>) {
    let mut groups: Vec<Group> = Vec::new();
    let mut errors = Vec::new();
    for (i, entry) in entries.iter().enumerate() {
        let fp = if let Some(hex) = entry.as_str() {
            match Fingerprint::from_hex(hex) {
                Some(fp) => fp,
                None => {
                    errors.push((
                        i,
                        400,
                        format!("graphs[{i}]: malformed fingerprint {hex:?}"),
                    ));
                    continue;
                }
            }
        } else {
            match parse_graph_doc(entry) {
                Ok(graph) => memo.fingerprint(&graph),
                Err(m) => {
                    errors.push((i, 400, format!("graphs[{i}]: {m}")));
                    continue;
                }
            }
        };
        let Some(owner) = ring.owner(fp) else {
            errors.push((i, 503, format!("graphs[{i}]: no backend available")));
            continue;
        };
        let serialized = entry.to_string();
        match groups.iter_mut().find(|g| g.owner == owner) {
            Some(group) => group.entries.push((i, serialized)),
            None => groups.push(Group {
                owner,
                route_fp: fp,
                entries: vec![(i, serialized)],
            }),
        }
    }
    (groups, errors)
}

/// Builds the `POST /batch` body for a group: the serialized entries plus
/// the validated spec (deduplicated memories — the backend re-validates
/// to the same list, so the per-entry bodies are unaffected).
pub fn batch_body(entries: &[(usize, String)], spec: &AnalyzeSpec) -> String {
    let graphs = entries
        .iter()
        .map(|(_, e)| e.as_str())
        .collect::<Vec<_>>()
        .join(",");
    let memories = spec
        .memories
        .iter()
        .map(|m| m.to_string())
        .collect::<Vec<_>>()
        .join(",");
    let mut body = format!("{{\"graphs\":[{graphs}],\"memories\":[{memories}]");
    if spec.processors > 1 {
        body.push_str(&format!(",\"processors\":{}", spec.processors));
    }
    if spec.no_sim {
        body.push_str(",\"no_sim\":true");
    }
    body.push('}');
    body
}

/// Splits a 200 sub-batch response body back into per-entry bodies (one
/// newline-terminated line each).
///
/// # Errors
/// When the body does not contain exactly `expected` lines — a protocol
/// violation the caller surfaces as 502, never as silently misaligned
/// output.
pub fn split_bodies(body: &str, expected: usize) -> Result<Vec<String>, String> {
    let lines: Vec<String> = body.split_inclusive('\n').map(str::to_string).collect();
    if lines.len() != expected || lines.iter().any(|l| !l.ends_with('\n')) {
        return Err(format!(
            "sub-batch returned {} per-graph bodies, expected {expected}",
            lines.len()
        ));
    }
    Ok(lines)
}

/// Reassembles per-entry bodies at their original indices into the
/// single-node concatenation.
///
/// # Errors
/// When any index is missing (a group failed without reporting — caller
/// bug), named for the 502.
pub fn gather(total: usize, parts: Vec<(usize, String)>) -> Result<String, String> {
    let mut slots: Vec<Option<String>> = (0..total).map(|_| None).collect();
    for (i, body) in parts {
        slots[i] = Some(body);
    }
    let mut out = String::new();
    for (i, slot) in slots.into_iter().enumerate() {
        match slot {
            Some(body) => out.push_str(&body),
            None => return Err(format!("missing sub-batch body for graphs[{i}]")),
        }
    }
    Ok(out)
}

/// Remaps an upstream per-index error (`{"error":"graphs[j]: ..."}`)
/// from sub-batch index `j` to the caller's original index via the
/// group's index list. Returns `None` when the body is not in the
/// per-index blame shape (the caller then treats it as a group-level
/// failure instead).
pub fn remap_blame(group_indices: &[usize], upstream_body: &str) -> Option<(usize, String)> {
    let doc = graphio_graph::json::parse(upstream_body).ok()?;
    let message = doc.get("error")?.as_str()?;
    let sub_index = batch_blame_index(message)?;
    let original = *group_indices.get(sub_index)?;
    // Everything after the `graphs[j]` prefix is backend wording the
    // router must preserve verbatim.
    let rest = message.split_once(']').map(|(_, r)| r)?;
    Some((original, format!("graphs[{original}]{rest}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphio_graph::json::parse;

    fn ring3() -> Ring {
        Ring::new(
            &[
                "127.0.0.1:9001".to_string(),
                "127.0.0.1:9002".to_string(),
                "127.0.0.1:9003".to_string(),
            ],
            64,
        )
    }

    #[test]
    fn split_groups_preserve_request_order_and_report_local_errors() {
        let entries = vec![
            parse("{\"ops\":[\"Input\",\"Add\"],\"edges\":[[0,1]]}").unwrap(),
            parse("\"zz\"").unwrap(), // malformed fingerprint
            parse("{\"ops\":[\"Input\",\"Input\",\"Mul\"],\"edges\":[[0,2],[1,2]]}").unwrap(),
            parse("{\"ops\":[\"Input\"],\"edges\":[[0,9]]}").unwrap(), // invalid graph
        ];
        let (groups, errors) = split(&entries, &ring3(), &FingerprintMemo::new());
        let grouped: usize = groups.iter().map(|g| g.entries.len()).sum();
        assert_eq!(grouped, 2);
        for g in &groups {
            let indices: Vec<usize> = g.entries.iter().map(|(i, _)| *i).collect();
            let mut sorted = indices.clone();
            sorted.sort_unstable();
            assert_eq!(indices, sorted, "within-group order is request order");
        }
        assert_eq!(errors.len(), 2);
        assert_eq!(errors[0].0, 1);
        assert!(errors[0].2.contains("malformed fingerprint \"zz\""));
        assert_eq!(errors[1].0, 3);
        assert!(errors[1].2.starts_with("graphs[3]: invalid graph:"));
    }

    #[test]
    fn batch_body_matches_the_wire_shape() {
        let entries = vec![(0, "\"aa\"".to_string()), (2, "{\"x\":1}".to_string())];
        let spec = AnalyzeSpec {
            memories: vec![2, 4],
            processors: 3,
            no_sim: true,
        };
        assert_eq!(
            batch_body(&entries, &spec),
            "{\"graphs\":[\"aa\",{\"x\":1}],\"memories\":[2,4],\"processors\":3,\"no_sim\":true}"
        );
    }

    #[test]
    fn split_bodies_requires_exact_newline_framing() {
        assert_eq!(
            split_bodies("{\"a\":1}\n{\"b\":2}\n", 2).unwrap(),
            vec!["{\"a\":1}\n".to_string(), "{\"b\":2}\n".to_string()]
        );
        assert!(split_bodies("{\"a\":1}\n", 2).is_err());
        assert!(
            split_bodies("{\"a\":1}\n{\"b\":2}", 2).is_err(),
            "no trailing newline"
        );
    }

    #[test]
    fn gather_reassembles_in_original_order() {
        let parts = vec![
            (2, "c\n".to_string()),
            (0, "a\n".to_string()),
            (1, "b\n".to_string()),
        ];
        assert_eq!(gather(3, parts).unwrap(), "a\nb\nc\n");
        assert!(gather(2, vec![(0, "a\n".to_string())]).is_err());
    }

    #[test]
    fn remap_blame_rewrites_the_index_and_keeps_the_message() {
        let body = "{\"error\":\"graphs[1]: no session for fingerprint ab (register via POST /graphs)\"}\n";
        let (index, message) = remap_blame(&[4, 7, 9], body).unwrap();
        assert_eq!(index, 7);
        assert_eq!(
            message,
            "graphs[7]: no session for fingerprint ab (register via POST /graphs)"
        );
        assert!(remap_blame(&[0], "{\"error\":\"queue full\"}\n").is_none());
    }
}
