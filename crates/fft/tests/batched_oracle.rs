//! Oracle test of the batched spectral solve: for random densities on
//! square, wide, tall and degenerate grids, [`ElectrostaticSolver`] must
//! reproduce, bit for bit and at any launch width, the per-row solve built
//! from [`DctPlan`] transforms (one plan call per grid row and column).

use xplace_fft::{DctPlan, ElectrostaticSolver, FieldSolution, Grid2};
use xplace_testkit::prop::{self, Config, Strategy};
use xplace_testkit::rng::Rng;
use xplace_testkit::{prop_assert, props};

const DIMS: [(usize, usize); 5] = [(2, 2), (64, 16), (16, 64), (128, 128), (512, 512)];

/// The per-row reference: y-analysis of each grid row, x-analysis of each
/// gathered column scaled to `a_uv`, the scaled potential/`Ex`/`Ey`
/// x-syntheses per frequency row, then the gathered y-syntheses.
fn per_row_solve(density: &Grid2) -> FieldSolution {
    let (nx, ny) = density.dims();
    let mut px = DctPlan::new(nx).unwrap();
    let mut py = DctPlan::new(ny).unwrap();
    let wx: Vec<f64> = (0..nx)
        .map(|u| std::f64::consts::PI * u as f64 / nx as f64)
        .collect();
    let wy: Vec<f64> = (0..ny)
        .map(|v| std::f64::consts::PI * v as f64 / ny as f64)
        .collect();
    let mut ybuf = vec![0.0; nx * ny];
    for ix in 0..nx {
        py.analyze(density.row(ix), &mut ybuf[ix * ny..(ix + 1) * ny])
            .unwrap();
    }
    let norm = 4.0 / (nx as f64 * ny as f64);
    let mut coeffs = vec![0.0; nx * ny];
    let mut col = vec![0.0; nx.max(ny)];
    for v in 0..ny {
        for ix in 0..nx {
            col[ix] = ybuf[ix * ny + v];
        }
        let out = &mut coeffs[v * nx..(v + 1) * nx];
        px.analyze(&col[..nx], out).unwrap();
        for (u, c) in out.iter_mut().enumerate() {
            let mut beta = norm;
            if u == 0 {
                beta *= 0.5;
            }
            if v == 0 {
                beta *= 0.5;
            }
            *c *= beta;
        }
    }
    let mut sb = [vec![0.0; nx * ny], vec![0.0; nx * ny], vec![0.0; nx * ny]];
    let (mut cp, mut ce, mut cy) = (vec![0.0; nx], vec![0.0; nx], vec![0.0; nx]);
    for v in 0..ny {
        let (wv, wv2) = (wy[v], wy[v] * wy[v]);
        for u in 0..nx {
            if wv2 == 0.0 && u == 0 {
                (cp[u], ce[u], cy[u]) = (0.0, 0.0, 0.0);
                continue;
            }
            let s = coeffs[v * nx + u] / (wx[u] * wx[u] + wv2);
            (cp[u], ce[u], cy[u]) = (s, s * wx[u], s * wv);
        }
        let row = v * nx..(v + 1) * nx;
        px.cosine_synthesis(&cp, &mut sb[0][row.clone()]).unwrap();
        px.sine_synthesis(&ce, &mut sb[1][row.clone()]).unwrap();
        px.cosine_synthesis(&cy, &mut sb[2][row]).unwrap();
    }
    let mut sol = FieldSolution::new(nx, ny);
    let mut g = [vec![0.0; ny], vec![0.0; ny], vec![0.0; ny]];
    for ix in 0..nx {
        for v in 0..ny {
            for s in 0..3 {
                g[s][v] = sb[s][v * nx + ix];
            }
        }
        py.cosine_synthesis(&g[0], sol.potential.row_mut(ix))
            .unwrap();
        py.cosine_synthesis(&g[1], sol.field_x.row_mut(ix)).unwrap();
        py.sine_synthesis(&g[2], sol.field_y.row_mut(ix)).unwrap();
    }
    sol.energy = 0.5
        * density
            .as_slice()
            .iter()
            .zip(sol.potential.as_slice())
            .map(|(r, p)| r * p)
            .sum::<f64>();
    sol
}

fn same_bits(a: &Grid2, b: &Grid2) -> bool {
    a.as_slice()
        .iter()
        .zip(b.as_slice())
        .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// A density grid for each of [`DIMS`]: a third of the bins empty, the
/// rest uniform in `[0, 4)`, with a few negative and negative-zero bins.
fn densities() -> impl Strategy<Value = Vec<Grid2>> {
    prop::from_fn(|rng: &mut Rng| {
        DIMS.iter()
            .map(|&(nx, ny)| {
                Grid2::from_fn(nx, ny, |_, _| match rng.gen_range(0u32..12) {
                    0..=3 => 0.0,
                    4 => -0.0,
                    5 => -rng.gen_range(0.0..1.0),
                    _ => rng.gen_range(0.0..4.0),
                })
            })
            .collect()
    })
}

props! {
    config = Config::with_cases(2);

    /// The batched solve equals the per-row plan solve bit for bit at
    /// launch widths 1, 2 and 3.
    fn batched_solve_matches_per_row_plans_bitwise(grids in densities()) {
        for density in &grids {
            let (nx, ny) = density.dims();
            let want = per_row_solve(density);
            for threads in [1, 2, 3] {
                let mut solver = ElectrostaticSolver::new(nx, ny).expect("solver");
                solver.set_threads(threads);
                let got = solver.solve(density).expect("solve");
                prop_assert!(same_bits(&got.potential, &want.potential),
                    "potential differs on {nx}x{ny} at width {threads}");
                prop_assert!(same_bits(&got.field_x, &want.field_x),
                    "field_x differs on {nx}x{ny} at width {threads}");
                prop_assert!(same_bits(&got.field_y, &want.field_y),
                    "field_y differs on {nx}x{ny} at width {threads}");
                prop_assert!(got.energy.to_bits() == want.energy.to_bits(),
                    "energy differs on {nx}x{ny} at width {threads}");
            }
        }
    }
}
