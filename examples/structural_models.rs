//! Structural-model comparison: how well do FCL, TCL and TriCycLe (all
//! non-private) reproduce the degree distribution and clustering of an input
//! graph?
//!
//! This is a miniature version of the paper's Figures 2 and 3: instead of
//! plotting CCDF curves it prints summary statistics plus a coarse CCDF table.
//!
//! ```text
//! cargo run --release --example structural_models
//! ```

use agmdp::graph::clustering::{average_local_clustering, local_clustering_coefficients};
use agmdp::graph::degree::DegreeSequence;
use agmdp::graph::triangles::count_triangles;
use agmdp::metrics::ccdf::{ccdf_at, ccdf_points};
use agmdp::metrics::distance::{hellinger_distance, ks_statistic};
use agmdp::prelude::*;
use rand::SeedableRng;

fn summarize(name: &str, input: &agmdp::graph::AttributedGraph, g: &agmdp::graph::AttributedGraph) {
    let d_in = DegreeSequence::from_graph(input).distribution();
    let d_g = DegreeSequence::from_graph(g).distribution();
    println!(
        "{:<10} m = {:>6}  triangles = {:>7}  avg clustering = {:.3}  KS(deg) = {:.3}  H(deg) = {:.3}",
        name,
        g.num_edges(),
        count_triangles(g),
        average_local_clustering(g),
        ks_statistic(&d_in, &d_g),
        hellinger_distance(&d_in, &d_g),
    );
}

fn main() {
    let spec = DatasetSpec::petster().scaled(0.5);
    let input = generate_dataset(&spec, 3).expect("dataset generation succeeds");
    let mut rng = rand::rngs::StdRng::seed_from_u64(17);

    println!("input graph ({}):", spec.name);
    summarize("input", &input, &input);
    println!();

    let degrees = input.degrees();
    let fcl = ChungLuModel::new(degrees.clone())
        .unwrap()
        .with_orphan_postprocessing(true)
        .sample(&SampleSpec::graph(), &mut rng)
        .and_then(Sample::into_graph)
        .unwrap();
    let tcl = TclModel::fit(&input, 10)
        .unwrap()
        .sample(&SampleSpec::graph(), &mut rng)
        .and_then(Sample::into_graph)
        .unwrap();
    let tricycle = TriCycLeModel::new(degrees, count_triangles(&input))
        .unwrap()
        .sample(&SampleSpec::graph(), &mut rng)
        .and_then(Sample::into_graph)
        .unwrap();

    println!("synthetic graphs (non-private structural models):");
    summarize("FCL", &input, &fcl);
    summarize("TCL", &input, &tcl);
    summarize("TriCycLe", &input, &tricycle);

    // A coarse CCDF table of local clustering coefficients (Figure 3's y-axis).
    println!();
    println!("fraction of nodes with local clustering coefficient > c:");
    println!(
        "{:<8} {:>8} {:>8} {:>8} {:>8}",
        "c", "input", "FCL", "TCL", "TriCycLe"
    );
    // The graphs are done mutating: freeze each one so the clustering sweep
    // runs on the CSR snapshot (identical values, flat-array traversal).
    let curves: Vec<Vec<agmdp::metrics::CcdfPoint>> = [&input, &fcl, &tcl, &tricycle]
        .iter()
        .map(|g| ccdf_points(&local_clustering_coefficients(&g.freeze())))
        .collect();
    for c in [0.0, 0.05, 0.1, 0.2, 0.4, 0.8] {
        print!("{c:<8.2}");
        for curve in &curves {
            print!(" {:>8.3}", ccdf_at(curve, c));
        }
        println!();
    }

    println!();
    println!("Expected shape (paper, Figures 2-3): all models match the degree distribution,");
    println!("but only TCL and TriCycLe reproduce the clustering; FCL's coefficients collapse");
    println!("towards zero.");
}
