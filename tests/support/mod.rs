//! Shared fixtures for the binary-level (spawn-the-real-binary) tests.

/// A trace whose analysis runs for seconds under either equivalence
/// strategy, giving signal-handling tests a wide window in which the
/// analysis is genuinely mid-flight: main forks 9 workers, and each
/// worker runs `P(s); V(s)` on one semaphore with initial count 1. Every
/// order of the 9 critical sections is feasible and induces its own
/// order, so there are 9! = 362,880 classes, and each is enumerated.
pub fn slow_trace_json() -> String {
    let workers = 9usize;
    let mut events = Vec::new();
    let children: Vec<String> = (1..=workers).map(|p| p.to_string()).collect();
    events.push(format!(
        r#"{{"id":0,"process":0,"op":{{"Fork":[{}]}},"reads":[],"writes":[],"label":null}}"#,
        children.join(",")
    ));
    let mut id = 1usize;
    for p in 1..=workers {
        for op in ["SemP", "SemV"] {
            events.push(format!(
                r#"{{"id":{id},"process":{p},"op":{{"{op}":0}},"reads":[],"writes":[],"label":null}}"#
            ));
            id += 1;
        }
    }
    let processes: Vec<String> = std::iter::once(r#"{"name":"main","created_by":null}"#.to_owned())
        .chain((1..=workers).map(|p| format!(r#"{{"name":"w{p}","created_by":0}}"#)))
        .collect();
    format!(
        r#"{{"events":[{}],"processes":[{}],"semaphores":[{{"name":"s","initial":1}}],"event_vars":[],"variables":[]}}"#,
        events.join(","),
        processes.join(",")
    )
}
