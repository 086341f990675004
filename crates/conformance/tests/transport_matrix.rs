//! Transport-invariance of the §6 oracle matrix.
//!
//! ECS probing/prefix/compliance behaviour is resolver *policy*; the
//! transport carrying the upstream queries (UDP, TCP, DoT) must not
//! change a single verdict. Each cell row is rendered canonically and the
//! whole table is compared byte-for-byte against the UDP baseline.

use conformance::{run_matrix, CellResult};
use resolver::Transport;

fn render(cells: &[CellResult]) -> String {
    cells
        .iter()
        .map(|c| {
            format!(
                "{}|{}|{}|{}|{}|{}",
                c.section, c.cell, c.config, c.scenario, c.expected, c.observed
            )
        })
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn verdict_table_is_byte_identical_across_transports() {
    let baseline_cells = run_matrix(Transport::Udp).cells;
    for c in &baseline_cells {
        assert!(c.pass(), "UDP baseline cell failed: {c:?}");
    }
    let baseline = render(&baseline_cells);
    assert!(!baseline.is_empty());
    for t in [Transport::Tcp, Transport::Dot] {
        let cells = run_matrix(t).cells;
        for c in &cells {
            assert!(c.pass(), "cell failed over {t}: {c:?}");
        }
        assert_eq!(
            render(&cells),
            baseline,
            "§6 verdict table diverged over {t}"
        );
    }
}
