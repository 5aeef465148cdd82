//! Static/dynamic sync-graph mirror test.
//!
//! The static scan over-approximates the recorded lock order for
//! function-local nestings: every edge the dooc-race replay derives from a
//! `record` log must already be present in the static graph of the source
//! that produced it. This file pins that containment on itself — the
//! nesting functions below are simultaneously *executed* under the
//! recorder and *scanned* (this test reads its own source off disk and
//! runs the static extractor on it), then every recorded edge is looked up
//! in the static edge set.
//!
//! Run with `cargo test -p dooc-check --features record --test
//! syncgraph_mirror`.

#![cfg(feature = "record")]

use dooc_check::syncgraph::{build_graph, scan_source};
use dooc_sync::{record, OrderedMutex};
use std::path::Path;

fn chain_head(first: &OrderedMutex<u32>, second: &OrderedMutex<u32>) {
    let _g1 = first.lock();
    let _g2 = second.lock();
}

fn chain_tail(second: &OrderedMutex<u32>, third: &OrderedMutex<u32>) {
    let _g2 = second.lock();
    let _g3 = third.lock();
}

#[test]
fn dynamic_order_edges_are_contained_in_the_static_scan() {
    let first = OrderedMutex::new("mirror.first", 0u32);
    let second = OrderedMutex::new("mirror.second", 0u32);
    let third = OrderedMutex::new("mirror.third", 0u32);
    let log = {
        let _session = record::session();
        record::clear();
        record::arm();
        chain_head(&first, &second);
        chain_tail(&second, &third);
        record::disarm();
        record::take_log()
    };
    let report = dooc_check::race::analyze(&log).expect("recorded log parses");
    assert!(report.clean(), "{}", report.render());
    let dynamic = &report.lock_edges;
    assert_eq!(
        dynamic.len(),
        2,
        "expected the two edges recorded above:\n{}",
        report.render()
    );

    let me = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/syncgraph_mirror.rs");
    let src = std::fs::read_to_string(&me).expect("read own source");
    let g = build_graph(vec![scan_source(&me, &src)]);

    // The binding names in the nesting functions resolve through the
    // `let` declarations in the test body: scanning is file-global.
    for e in dynamic {
        assert!(
            g.has_edge(&e.from, &e.to),
            "recorded edge {e} missing from the static graph:\n{}",
            g.render()
        );
    }

    // And the static side saw exactly the three classes declared here.
    let mut classes: Vec<&str> = g.classes.iter().map(|c| c.class.as_str()).collect();
    classes.sort_unstable();
    assert_eq!(classes, ["mirror.first", "mirror.second", "mirror.third"]);
}
