//! The crate graph DESIGN §1 prints is the graph the manifests declare.
//!
//! DESIGN §1 lists every `[dependencies]` edge between the workspace's
//! crates, one fenced line per crate (`drams-store    : drams-crypto
//! drams-chain`). This test reads the `drams-*` names of each
//! `crates/*/Cargo.toml` `[dependencies]` table (a `[dev-dependencies]`
//! edge is not part of the graph a build follows) and requires the two
//! graphs to be equal, so a new edge fails until the manifest and the
//! list both change. The planted case applies the same comparison to
//! in-memory copies with one edge added, and shows that it fires.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::Path;

type Graph = BTreeMap<String, BTreeSet<String>>;

/// A `drams-*` crate name, and nothing else.
fn is_crate_name(token: &str) -> bool {
    token
        .strip_prefix("drams-")
        .is_some_and(|rest| !rest.is_empty() && rest.bytes().all(|b| b.is_ascii_lowercase()))
}

/// The edge lines of DESIGN §1: inside a fence, `name : dep dep ...`.
fn design_graph(design: &str) -> Graph {
    let section = design
        .split("\n## 1.")
        .nth(1)
        .and_then(|rest| rest.split("\n## 2.").next())
        .expect("DESIGN.md has a §1 followed by a §2");
    let mut graph = Graph::new();
    let mut fenced = false;
    for line in section.lines() {
        if line.starts_with("```") {
            fenced = !fenced;
            continue;
        }
        let Some((name, deps)) = line.split_once(':') else {
            continue;
        };
        let (name, deps) = (name.trim(), deps.split_whitespace());
        if !fenced || !is_crate_name(name) {
            continue;
        }
        let deps: BTreeSet<String> = deps.map(str::to_owned).collect();
        if !deps.iter().all(|d| is_crate_name(d)) {
            continue;
        }
        graph.insert(name.to_owned(), deps);
    }
    graph
}

/// A manifest's package name and the `drams-*` keys of its
/// `[dependencies]` table (`drams-x = { .. }` or `drams-x.workspace = ..`).
fn manifest_edges(manifest: &str) -> (String, BTreeSet<String>) {
    let (mut name, mut edges) = (String::new(), BTreeSet::new());
    let mut table = "";
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            table = line;
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            continue;
        };
        let key = key.trim();
        match table {
            "[package]" if key == "name" => name = value.trim().trim_matches('"').to_owned(),
            "[dependencies]" => {
                let key = key.split('.').next().unwrap_or(key);
                if is_crate_name(key) {
                    edges.insert(key.to_owned());
                }
            }
            _ => {}
        }
    }
    (name, edges)
}

/// Every difference between DESIGN §1's list and the manifests, one line
/// each; empty when the two graphs agree.
fn mismatches(design: &str, manifests: &[String]) -> Vec<String> {
    let printed = design_graph(design);
    let mut found = Vec::new();
    let declared: Graph = manifests.iter().map(|m| manifest_edges(m)).collect();
    let names: BTreeSet<&String> = printed.keys().chain(declared.keys()).collect();
    for name in names {
        match (declared.get(name), printed.get(name)) {
            (Some(_), None) => found.push(format!("{name}: no line in DESIGN §1")),
            (None, Some(_)) => {
                found.push(format!("{name}: in DESIGN §1 but no crates/*/Cargo.toml"))
            }
            (Some(declared), Some(printed)) => {
                for dep in declared.difference(printed) {
                    found.push(format!(
                        "{name} -> {dep}: in its manifest, not in DESIGN §1"
                    ));
                }
                for dep in printed.difference(declared) {
                    found.push(format!(
                        "{name} -> {dep}: in DESIGN §1, not in its manifest"
                    ));
                }
            }
            (None, None) => unreachable!("every name comes from one of the two graphs"),
        }
    }
    found
}

fn repo() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn design() -> String {
    fs::read_to_string(repo().join("DESIGN.md")).expect("DESIGN.md")
}

/// Every `crates/*/Cargo.toml`, in directory order.
fn manifests() -> Vec<String> {
    let mut paths: Vec<_> = fs::read_dir(repo().join("crates"))
        .expect("crates/")
        .map(|entry| entry.expect("crates/ entry").path().join("Cargo.toml"))
        .filter(|path| path.is_file())
        .collect();
    paths.sort();
    paths
        .iter()
        .map(|path| fs::read_to_string(path).expect("manifest"))
        .collect()
}

#[test]
fn design_prints_the_crate_graph_the_manifests_declare() {
    let manifests = manifests();
    assert_eq!(manifests.len(), 11, "one manifest per crate");
    let found = mismatches(&design(), &manifests);
    assert!(found.is_empty(), "{}", found.join("\n"));
}

#[test]
fn a_planted_edge_fails_until_both_sides_list_it() {
    let (design, clean) = (design(), manifests());
    let mut planted = clean.clone();
    let chain = planted
        .iter_mut()
        .find(|m| manifest_edges(m).0 == "drams-chain")
        .expect("the chain's manifest");
    *chain = chain.replacen(
        "[dependencies]\n",
        "[dependencies]\ndrams-faas = { workspace = true }\n",
        1,
    );
    assert_eq!(
        mismatches(&design, &planted),
        ["drams-chain -> drams-faas: in its manifest, not in DESIGN §1"]
    );
    let listed = design.replacen(
        "drams-chain    : drams-crypto\n",
        "drams-chain    : drams-crypto drams-faas\n",
        1,
    );
    assert_ne!(listed, design, "DESIGN §1 lists the chain's edges");
    assert!(mismatches(&listed, &planted).is_empty());
    // The same edge string in DESIGN alone fails from the other side.
    assert_eq!(
        mismatches(&listed, &clean),
        ["drams-chain -> drams-faas: in DESIGN §1, not in its manifest"]
    );
}
