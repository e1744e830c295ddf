//! The on-disk trace format is a compatibility surface: the golden file
//! in `testdata/` pins it, and these tests fail if the serialization ever
//! drifts (bump the golden file deliberately when that is intended).

use eo_engine::ExactEngine;
use eo_model::Trace;

const GOLDEN: &str = include_str!("../testdata/figure1.trace.json");

#[test]
fn golden_figure1_parses_and_validates() {
    let trace = Trace::from_json(GOLDEN).expect("golden trace must stay parseable");
    assert_eq!(trace.n_events(), 7);
    assert_eq!(trace.processes.len(), 4);
    assert_eq!(trace.event_vars.len(), 1);
    assert_eq!(trace.variables.len(), 1);
}

#[test]
fn golden_figure1_matches_the_fixture() {
    let golden = Trace::from_json(GOLDEN).unwrap();
    let (fresh, _ids) = eo_model::fixtures::figure1();
    assert_eq!(golden, fresh, "fixture and golden file must stay in sync");
}

#[test]
fn golden_figure1_round_trips_bit_exactly() {
    let trace = Trace::from_json(GOLDEN).unwrap();
    let reserialized = trace.to_json();
    let reparsed = Trace::from_json(&reserialized).unwrap();
    assert_eq!(trace, reparsed);
    assert_eq!(format!("{reserialized}\n"), GOLDEN);
    let (fixture, _ids) = eo_model::fixtures::figure1();
    assert_eq!(format!("{}\n", fixture.to_json()), GOLDEN);
}

#[test]
fn golden_figure1_analyzes_to_the_paper_answer() {
    let trace = Trace::from_json(GOLDEN).unwrap();
    let exec = trace.to_execution().unwrap();
    let engine = ExactEngine::new(&exec);
    let left = exec.event_labeled("post_left").unwrap();
    let right = exec.event_labeled("post_right").unwrap();
    assert!(engine.mhb(left, right));
}

#[test]
fn malformed_json_is_rejected_with_an_error() {
    assert!(Trace::from_json("{").is_err());
    assert!(Trace::from_json("{}").is_err(), "missing fields");
    // Structurally fine JSON that fails semantic validation: truncate the
    // events array so a fork references a child with stale created_by.
    let mut trace = Trace::from_json(GOLDEN).unwrap();
    trace.events.truncate(1); // drop the fork the children point at
    let json = trace.to_json();
    assert!(Trace::from_json(&json).is_err());
}
