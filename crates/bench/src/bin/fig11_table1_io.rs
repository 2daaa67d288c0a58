//! Figure 11 + Table I — leaf accesses of clipped R-trees relative to
//! their unclipped counterparts, for the three query profiles over all
//! seven datasets and four variants; Table I aggregates the percentage I/O
//! reduction (skyline/stairline).
//!
//! Paper Table I (skyline/stairline % I/O reduction):
//! ```text
//!              QR0      QR1      QR2      Total
//! QR-tree     24/44    16/29     7/13    16/29
//! HR-tree     25/42    18/30     8/14    17/29
//! R*-tree     21/38    15/28     7/14    14/27
//! RR*-tree    15/28    11/21   4.5/9.5   10/19
//! Total       21/38    15/27   6.5/13    14/26
//! ```
//!
//! Writes `BENCH_paper.json`: the mean reduction of every variant ×
//! profile cell for both clip methods, plus the total. CI gates its
//! direction only (`check_bench_json.py`): every reduction is above 0,
//! stairline ≥ skyline in every cell, and QR0 ≥ QR2 per variant and
//! method. The bin runs at its default scale (it ignores
//! `CBB_BENCH_SMOKE`).

use cbb_bench::{
    base_leaf_accesses, clip_tree, clipped_leaf_accesses, header, paper_build, parse_args, pct,
    row, workload, METHODS, VARIANTS,
};
use cbb_datasets::{dataset2, dataset3, Dataset, QueryProfile};

/// `reduction[variant][profile][method]` accumulated across datasets.
#[derive(Default)]
struct Accumulator {
    /// (variant, profile, method) → (sum of reductions, count).
    sums: std::collections::HashMap<(usize, usize, usize), (f64, usize)>,
}

impl Accumulator {
    fn add(&mut self, v: usize, p: usize, m: usize, reduction: f64) {
        let e = self.sums.entry((v, p, m)).or_insert((0.0, 0));
        e.0 += reduction;
        e.1 += 1;
    }

    fn mean(&self, v: Option<usize>, p: Option<usize>, m: usize) -> f64 {
        let mut sum = 0.0;
        let mut n = 0usize;
        for (&(vv, pp, mm), &(s, c)) in &self.sums {
            if mm == m && v.is_none_or(|x| x == vv) && p.is_none_or(|x| x == pp) {
                sum += s;
                n += c;
            }
        }
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }
}

fn run_dataset<const D: usize>(data: &Dataset<D>, args: &cbb_bench::Args, acc: &mut Accumulator) {
    header(
        &format!(
            "Figure 11 — {} (leaf accesses w.r.t. unclipped = 100%)",
            data.name
        ),
        "variant",
        &[
            "QR0 SKY", "QR0 STA", "QR1 SKY", "QR1 STA", "QR2 SKY", "QR2 STA",
        ],
    );
    for (vi, variant) in VARIANTS.iter().enumerate() {
        let tree = paper_build(*variant, data);
        let clipped: Vec<_> = METHODS.iter().map(|m| clip_tree(&tree, *m)).collect();
        let mut cells = Vec::new();
        for (pi, profile) in QueryProfile::ALL.iter().enumerate() {
            let queries = workload(data, &tree, *profile, args);
            let base = base_leaf_accesses(&tree, &queries).max(1);
            for (mi, c) in clipped.iter().enumerate() {
                let with = clipped_leaf_accesses(c, &queries);
                let ratio = with as f64 / base as f64;
                cells.push(pct(ratio));
                acc.add(vi, pi, mi, 1.0 - ratio);
            }
        }
        println!("{}", row(variant.label(), &cells));
    }
}

fn main() {
    let args = parse_args();
    let mut acc = Accumulator::default();

    run_dataset(&dataset2("par02", args.scale), &args, &mut acc);
    run_dataset(&dataset3("par03", args.scale), &args, &mut acc);
    run_dataset(&dataset2("rea02", args.scale), &args, &mut acc);
    run_dataset(&dataset3("rea03", args.scale), &args, &mut acc);
    run_dataset(&dataset3("axo03", args.scale), &args, &mut acc);
    run_dataset(&dataset3("den03", args.scale), &args, &mut acc);
    run_dataset(&dataset3("neu03", args.scale), &args, &mut acc);

    // --- Table I ---
    header(
        "Table I — avg % I/O reduction (skyline/stairline), all datasets",
        "variant",
        &["QR0", "QR1", "QR2", "Total"],
    );
    let fmt_pair = |sky: f64, sta: f64| format!("{:.0}/{:.0}", 100.0 * sky, 100.0 * sta);
    for (vi, variant) in VARIANTS.iter().enumerate() {
        let mut cells = Vec::new();
        for pi in 0..3 {
            cells.push(fmt_pair(
                acc.mean(Some(vi), Some(pi), 0),
                acc.mean(Some(vi), Some(pi), 1),
            ));
        }
        cells.push(fmt_pair(
            acc.mean(Some(vi), None, 0),
            acc.mean(Some(vi), None, 1),
        ));
        println!("{}", row(variant.label(), &cells));
    }
    let mut cells = Vec::new();
    for pi in 0..3 {
        cells.push(fmt_pair(
            acc.mean(None, Some(pi), 0),
            acc.mean(None, Some(pi), 1),
        ));
    }
    cells.push(fmt_pair(acc.mean(None, None, 0), acc.mean(None, None, 1)));
    println!("{}", row("Total", &cells));
    println!("\n(paper Table I total: 14/26)");

    let json_rows: Vec<String> = VARIANTS
        .iter()
        .enumerate()
        .flat_map(|(vi, variant)| {
            let acc = &acc;
            (0..3).map(move |pi| {
                format!(
                    "{{\"variant\": \"{}\", \"profile\": \"QR{pi}\", \"skyline\": {:.4}, \"stairline\": {:.4}}}",
                    variant.label(),
                    acc.mean(Some(vi), Some(pi), 0),
                    acc.mean(Some(vi), Some(pi), 1),
                )
            })
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"fig11_table1_io\",\n  \"metric\": \"mean leaf-access reduction vs unclipped\",\n  \
         \"config\": {{\"scale\": \"{:?}\", \"queries\": {}, \"seed\": {}}},\n  \
         \"total\": {{\"skyline\": {:.4}, \"stairline\": {:.4}}},\n  \"rows\": [\n    {}\n  ]\n}}\n",
        args.scale,
        args.queries,
        args.seed,
        acc.mean(None, None, 0),
        acc.mean(None, None, 1),
        json_rows.join(",\n    "),
    );
    std::fs::write("BENCH_paper.json", &json).expect("write BENCH_paper.json");
    println!("wrote BENCH_paper.json ({} cells)", json_rows.len());
}
