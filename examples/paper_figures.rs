//! Regenerates every table and figure of the paper into `out/paper/`.
//!
//! ```text
//! cargo run --example paper_figures [--print]
//! ```
//!
//! Writes `<id>.txt` (rendered panel) and `<id>.csv` (underlying data) for
//! Tables 1–6 and Figures 1–9. With `--print`, also dumps the panels to
//! stdout.

use std::path::Path;

fn main() {
    let print = std::env::args().any(|a| a == "--print");
    let out = Path::new("out/paper");
    let artifacts = sustainable_hpc::report::render_all(2021);
    for a in &artifacts {
        a.write_to(out).expect("writable output directory");
        println!(
            "wrote {}/{}.{{txt,csv}}  — {}",
            out.display(),
            a.id,
            a.title
        );
        if print {
            println!("\n{}\n{}", a.title, a.text);
        }
    }
    println!(
        "\n{} artifacts regenerated into {}",
        artifacts.len(),
        out.display()
    );
}
