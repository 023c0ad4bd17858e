//! `exp_figures` — regenerate Figures 9a, 9b, 10a, 10b and 11, plus the
//! §V-B ordering and Algorithm 1 threshold ablations.
//!
//! ```text
//! cargo run -p svqa-bench --bin exp_figures --release [-- --quick]
//! ```

use svqa::{Svqa, SvqaConfig};
use svqa_bench::{build_mvqa, run_exp4, run_exp5, save_json, Scale};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let scale = if quick { Scale::Quick } else { Scale::Full };
    eprintln!(
        "building MVQA at {:?} scale ({} images)...",
        scale,
        scale.image_count()
    );
    let mvqa = build_mvqa(scale);

    eprintln!("running Exp-4 (Figs. 9a/9b)...");
    let (exp4, t9a, t9b) = run_exp4(&mvqa);
    print!("{}", t9a.render());
    print!("{}", t9b.render());
    save_json(scale, "exp4_fig9", &exp4);

    eprintln!("building the pipeline for Exp-5 (Figs. 10–11 and ablations)...");
    let system = Svqa::build(&mvqa.images, &mvqa.kg, SvqaConfig::default());
    let (exp5, tables) = run_exp5(&mvqa, &system);
    for table in &tables {
        print!("{}", table.render());
    }
    save_json(scale, "exp5_fig10_fig11", &exp5);
}
