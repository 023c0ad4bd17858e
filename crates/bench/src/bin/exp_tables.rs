//! `exp_tables` — regenerate Tables I–V of the paper.
//!
//! ```text
//! cargo run -p svqa-bench --bin exp_tables --release [-- --quick]
//! ```
//!
//! `--quick` uses 1,000 images (seconds); the default uses the paper's
//! 4,233 (a few minutes). JSON reports land under `results/`, or under
//! `results/quick/` with `--quick`.

use svqa_bench::{
    build_mvqa, build_vqav2, run_exp1, run_exp2, run_exp3, save_json, table_1_and_2, Scale,
};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let scale = if quick { Scale::Quick } else { Scale::Full };
    eprintln!(
        "building MVQA at {:?} scale ({} images)...",
        scale,
        scale.image_count()
    );
    let mvqa = build_mvqa(scale);

    let (t1, t2) = table_1_and_2(&mvqa);
    print!("{}", t1.render());
    print!("{}", t2.render());
    save_json(scale, "table1_table2", &mvqa.stats());

    eprintln!("running Exp-1 (Table III)...");
    let (exp1, t3) = run_exp1(&mvqa);
    print!("{}", t3.render());
    println!(
        "(offline build: {:.1}s for {} images; parse failures: {})",
        exp1.build_secs,
        mvqa.images.len(),
        exp1.outcome.parse_failures
    );
    save_json(scale, "exp1_table3", &exp1);

    eprintln!("running Exp-2 (Table IV)...");
    let vqav2 = build_vqav2(scale);
    let (exp2, t4) = run_exp2(&vqav2);
    print!("{}", t4.render());
    save_json(scale, "exp2_table4", &exp2);

    eprintln!("running Exp-3 (Table V; 6 pipeline builds)...");
    let exp3_mvqa = if quick {
        mvqa
    } else {
        build_mvqa(Scale::Quick)
    };
    let (exp3, t5) = run_exp3(&exp3_mvqa);
    print!("{}", t5.render());
    save_json(scale, "exp3_table5", &exp3);
}
