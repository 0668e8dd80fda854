//! Serving-path differential: for every registered workload family, a burst
//! of concurrent client requests served through `distill-serve`'s coalescing
//! scheduler must reassemble into exactly the trial outputs a solo
//! `Session`/`RunSpec` run produces — bit for bit, including scheduler pass
//! counts. This is the end-to-end statement of the serving layer's
//! bit-transparency guarantee over the whole registry, not just the families
//! the serve crate's unit tests pick.

use distill::{RunSpec, Session};
use distill_models::{registry::registry, Scale};
use distill_serve::{ServeConfig, Server, TrialRequest};

/// Uneven per-request trial counts, so demuxing has to handle ragged
/// request boundaries inside shared spans.
const BURST: [usize; 3] = [2, 3, 4];

#[test]
fn every_family_serves_bit_identically_to_solo_runspec_runs() {
    let total: usize = BURST.iter().sum();
    let server = Server::start(ServeConfig {
        workers: 2,
        batch: 4,
        ..ServeConfig::default()
    });

    // Submit the whole registry's bursts before waiting on any ticket:
    // workers stay busy with earlier lanes while later requests pile up,
    // which is what makes spans coalesce.
    let mut tickets = Vec::new();
    for spec in registry() {
        for trials in BURST {
            tickets.push((
                spec.name,
                server
                    .submit(TrialRequest::new(spec.name, trials))
                    .expect("submit failed"),
            ));
        }
    }

    // Reassemble each family's served trial space from its demuxed
    // responses; server-allocated starts are contiguous from 0 per lane.
    let mut served: std::collections::HashMap<&str, (Vec<Vec<f64>>, Vec<u64>)> = registry()
        .iter()
        .map(|spec| (spec.name, (vec![Vec::new(); total], vec![0u64; total])))
        .collect();
    for (family, ticket) in tickets {
        let start = ticket.start();
        let response = ticket.wait().expect("serve failed");
        assert_eq!(response.start, start);
        let (outputs, passes) = served.get_mut(family).unwrap();
        for (k, out) in response.outputs.into_iter().enumerate() {
            assert!(
                outputs[start + k].is_empty(),
                "trial {} served twice",
                start + k
            );
            outputs[start + k] = out;
        }
        passes[start..start + response.passes.len()].copy_from_slice(&response.passes);
    }

    // Solo reference: one Session per family running the same trial space
    // in a single RunSpec, with nothing shared and nothing coalesced.
    for spec in registry() {
        let w = spec.build(Scale::Reduced);
        let mut solo = Session::new(&w.model).build().expect("solo build failed");
        let reference = solo
            .run(&RunSpec::new(w.inputs.clone(), total))
            .expect("solo run failed");
        let (outputs, passes) = &served[spec.name];
        assert_eq!(
            *outputs, reference.outputs,
            "served outputs diverged from solo RunSpec run for {}",
            spec.name
        );
        assert_eq!(
            *passes, reference.passes,
            "served pass counts diverged from solo RunSpec run for {}",
            spec.name
        );
    }

    let stats = server.stats();
    assert_eq!(stats.requests as usize, registry().len() * BURST.len());
    assert!(
        stats.coalesced_spans > 0,
        "burst submission never coalesced a span"
    );
}
