//! Density operators: bin accumulation, overflow, electrostatic gradient.
//!
//! The density system follows ePlace (Eq. 5, 7-10 of the paper): movable
//! and fixed cells plus whitespace fillers are charges on an `M x M` bin
//! grid; the Poisson potential's field is the spreading force. The
//! *operator extraction* technique of §3.1.2 is expressed here as two
//! alternative execution paths over the same math:
//!
//! * **extracted** (Xplace): accumulate the movable+fixed map `D` once,
//!   the filler map `D_fl` once, add element-wise for the total map, and
//!   reuse `D` for the overflow ratio;
//! * **direct** (baseline): accumulate the total map in one pass over all
//!   nodes *and* accumulate `D` a second time for the overflow ratio —
//!   the redundant movable-cell pass the paper eliminates.

use crate::{OpsError, PlacementModel};
use xplace_device::{Device, KernelInfo};
use xplace_fft::{ElectrostaticSolver, FieldSolution, Grid2, SolveOutputs};

const SQRT2: f64 = std::f64::consts::SQRT_2;

/// Fixed node-block size for the blocked parallel density accumulation.
///
/// Like `xplace_ops::wirelength::NET_BLOCK`, the block grid depends only on
/// the model's node ranges — never the thread count — so the per-block
/// partial maps and their fixed-order merge are bit-identical for every
/// `threads` value. Designs whose ranges all fit in a single block take the
/// direct serial accumulation path (no partial maps at all).
pub const NODE_BLOCK: usize = 2048;

/// The per-pass constants of density accumulation.
#[derive(Debug, Clone, Copy)]
struct Binning {
    /// Movable nodes `smooth_lo..smooth_hi` and fillers (`>= filler_start`)
    /// are smoothed; every other node is a fixed footprint.
    smooth_lo: usize,
    smooth_hi: usize,
    filler_start: usize,
    target: f64,
    region: xplace_db::Rect,
    bin_w: f64,
    bin_h: f64,
    inv_bin_area: f64,
    nx: usize,
    ny: usize,
}

impl Binning {
    fn new(model: &PlacementModel, nx: usize, ny: usize) -> Self {
        let ranges = model.ranges();
        let (bin_w, bin_h) = (model.bin_w(), model.bin_h());
        Binning {
            smooth_lo: ranges.movable.start,
            smooth_hi: ranges.movable.end,
            filler_start: ranges.filler.start,
            target: model.target_density(),
            region: model.region(),
            bin_w,
            bin_h,
            inv_bin_area: 1.0 / (bin_w * bin_h),
            nx,
            ny,
        }
    }

    /// Node `i`'s charge footprint `[we / 2, he / 2, scale]`.
    ///
    /// ePlace cell smoothing for movable cells and fillers: inflate to at
    /// least sqrt(2) x bin size, scale the charge so area is conserved.
    /// Fixed macros keep their footprint but contribute exactly the target
    /// density (DREAMPlace's convention) — otherwise every macro bin sits at
    /// density 1 > D_t and creates an irreducible overflow floor.
    fn footprint(&self, model: &PlacementModel, i: usize) -> [f64; 3] {
        let (w, h) = (model.w[i], model.h[i]);
        let smoothed = (i >= self.smooth_lo && i < self.smooth_hi) || i >= self.filler_start;
        let (we, he, scale) = if smoothed {
            let we = w.max(SQRT2 * self.bin_w);
            let he = h.max(SQRT2 * self.bin_h);
            (we, he, (w * h) / (we * he))
        } else {
            (w, h, self.target)
        };
        [we * 0.5, he * 0.5, scale]
    }

    /// Node `i`'s charge rectangle `(lx, ux, ly, uy)` and its charge scale,
    /// from its cached [`Binning::footprint`].
    #[inline(always)]
    fn charge(model: &PlacementModel, i: usize, fp: [f64; 3]) -> (f64, f64, f64, f64, f64) {
        let [half_w, half_h, scale] = fp;
        let lx = model.x[i] - half_w;
        let ux = model.x[i] + half_w;
        let ly = model.y[i] - half_h;
        let uy = model.y[i] + half_h;
        (lx, ux, ly, uy, scale)
    }

    /// The bin ranges `(bx0..bx1, by0..by1)` a rectangle may touch.
    #[inline(always)]
    fn bins(&self, lx: f64, ux: f64, ly: f64, uy: f64) -> (usize, usize, usize, usize) {
        let r = self.region;
        let bx0 = (((lx - r.lx) / self.bin_w).floor().max(0.0)) as usize;
        let bx1 = ((((ux - r.lx) / self.bin_w).ceil()) as usize).min(self.nx);
        let by0 = (((ly - r.ly) / self.bin_h).floor().max(0.0)) as usize;
        let by1 = ((((uy - r.ly) / self.bin_h).ceil()) as usize).min(self.ny);
        (bx0, bx1, by0, by1)
    }

    /// Accumulates node `i`'s (smoothed) footprint into `map`.
    ///
    /// The node's y-overlaps depend only on the bin row, so they are
    /// computed once into `oy` and every x-bin adds through a slice of its
    /// map row. Each bin still receives `ox * oy * scale * inv_bin_area`,
    /// evaluated in that order, so the map is bit-identical to evaluating
    /// both overlaps per bin.
    #[inline(always)]
    fn accumulate_node(
        &self,
        model: &PlacementModel,
        i: usize,
        fp: [f64; 3],
        oy: &mut Vec<f64>,
        map: &mut Grid2,
    ) {
        if model.w[i] <= 0.0 || model.h[i] <= 0.0 {
            return; // terminals
        }
        let (lx, ux, ly, uy, scale) = Self::charge(model, i, fp);
        let (bx0, bx1, by0, by1) = self.bins(lx, ux, ly, uy);
        if bx0 >= bx1 || by0 >= by1 {
            return;
        }
        oy.clear();
        oy.extend((by0..by1).map(|by| {
            let b_ly = self.region.ly + by as f64 * self.bin_h;
            (uy.min(b_ly + self.bin_h) - ly.max(b_ly)).max(0.0)
        }));
        for bx in bx0..bx1 {
            let b_lx = self.region.lx + bx as f64 * self.bin_w;
            let ox = (ux.min(b_lx + self.bin_w) - lx.max(b_lx)).max(0.0);
            if ox == 0.0 {
                continue;
            }
            for (bin, &oy) in map.row_mut(bx)[by0..by1].iter_mut().zip(oy.iter()) {
                if oy > 0.0 {
                    *bin += ox * oy * scale * self.inv_bin_area;
                }
            }
        }
    }
}

xplace_parallel::avx2_dispatch! {
    /// Accumulates the nodes `nodes` into `map`
    /// ([`Binning::accumulate_node`], `footprints` indexed by node).
    fn accumulate_nodes(
        binning: &Binning,
        model: &PlacementModel,
        nodes: std::ops::Range<usize>,
        footprints: &[[f64; 3]],
        oy: &mut Vec<f64>,
        map: &mut Grid2,
    ) {
        for i in nodes {
            binning.accumulate_node(model, i, footprints[i], oy, map);
        }
    }
}

/// Stateful density operator owning the bin grids, the spectral solver and
/// the cached field solution.
#[derive(Debug)]
pub struct DensityOp {
    solver: ElectrostaticSolver,
    solution: FieldSolution,
    /// Movable + fixed cell density `D` (Eq. 8), used by the overflow
    /// ratio and, under extraction, reused for the total map.
    pub movable_map: Grid2,
    /// Filler density `D_fl`.
    pub filler_map: Grid2,
    /// Total density `D~ = D + D_fl` (Eq. 10), input to the field solve.
    pub total_map: Grid2,
    nx: usize,
    ny: usize,
    /// CPU launch width for the accumulation kernel bodies and the
    /// spectral solve (1 = serial; results are identical for every count
    /// because the work decomposition is thread-count independent).
    threads: usize,
    /// Node-block size of the blocked decomposition (normally
    /// [`NODE_BLOCK`]; overridable for tests/benches).
    node_block: usize,
    /// Reused scratch of the blocked path: one partial map and y-overlap
    /// buffer per node block. Slot `b` is zero-filled before block `b`
    /// accumulates, so reuse is bit-identical to fresh maps.
    blocks: Vec<(Grid2, Vec<f64>)>,
    /// The serial path's y-overlap buffer.
    oy: Vec<f64>,
    /// Every node's [`Binning::footprint`]: node sizes and the bin grid
    /// are fixed for the model's lifetime, so they are computed once.
    footprints: Vec<[f64; 3]>,
}

/// Which node classes an accumulation pass covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Subset {
    MovableAndFixed,
    Fillers,
    All,
}

impl DensityOp {
    /// Creates the operator for a model's grid.
    ///
    /// # Errors
    ///
    /// Returns [`OpsError::Spectral`] if the model's grid dimensions are
    /// not supported by the spectral solver.
    pub fn new(model: &PlacementModel) -> Result<Self, OpsError> {
        let (nx, ny) = model.grid_dims();
        let binning = Binning::new(model, nx, ny);
        Ok(DensityOp {
            solver: ElectrostaticSolver::new(nx, ny)?,
            solution: FieldSolution::new(nx, ny),
            movable_map: Grid2::new(nx, ny),
            filler_map: Grid2::new(nx, ny),
            total_map: Grid2::new(nx, ny),
            nx,
            ny,
            threads: 1,
            node_block: NODE_BLOCK,
            blocks: Vec::new(),
            oy: Vec::new(),
            footprints: (0..model.num_nodes())
                .map(|i| binning.footprint(model, i))
                .collect(),
        })
    }

    /// Sets the CPU launch width for the accumulation kernel bodies and
    /// the spectral solver (clamped to at least 1). The thread count only
    /// changes scheduling: the blocked decomposition is fixed by the model,
    /// so results are bit-identical for every value.
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads.max(1);
        self.solver.set_threads(self.threads);
    }

    /// Overrides the node-block size of the blocked decomposition (clamped
    /// to at least 1). Intended for tests and benchmarks that need to force
    /// multi-block decompositions on small designs; changing the block size
    /// changes the (deterministic) summation order.
    pub fn set_node_block(&mut self, node_block: usize) {
        self.node_block = node_block.max(1);
    }

    /// Grid dimensions `(nx, ny)`.
    pub fn grid_dims(&self) -> (usize, usize) {
        (self.nx, self.ny)
    }

    /// The cached field solution of the last [`DensityOp::solve_field`]:
    /// `field_x`/`field_y` are the field a gradient reads; the potential
    /// and energy are those of the last [`DensityOp::energy`].
    pub fn field(&self) -> &FieldSolution {
        &self.solution
    }

    /// Restores the cached field from checkpointed data — the write-side
    /// counterpart of [`DensityOp::field`], used when a GP run resumes
    /// inside a skip window and must serve gradients from the same cached
    /// field the interrupted run held.
    ///
    /// # Errors
    ///
    /// Returns [`OpsError::InvalidModel`] if the slice lengths do not
    /// match this operator's grid.
    pub fn restore_field(&mut self, field_x: &[f64], field_y: &[f64]) -> Result<(), OpsError> {
        let want = self.nx * self.ny;
        if field_x.len() != want || field_y.len() != want {
            return Err(OpsError::InvalidModel(format!(
                "field snapshot has {}x{} entries, grid is {}x{}",
                field_x.len(),
                field_y.len(),
                self.nx,
                self.ny
            )));
        }
        self.solution
            .field_x
            .as_mut_slice()
            .copy_from_slice(field_x);
        self.solution
            .field_y
            .as_mut_slice()
            .copy_from_slice(field_y);
        Ok(())
    }

    fn accumulate(&mut self, model: &PlacementModel, subset: Subset, map_kind: Subset) {
        let map = match map_kind {
            Subset::MovableAndFixed => &mut self.movable_map,
            Subset::Fillers => &mut self.filler_map,
            Subset::All => &mut self.total_map,
        };
        map.fill_zero();
        let binning = Binning::new(model, self.nx, self.ny);
        let ranges = model.ranges();
        let node_range: Vec<std::ops::Range<usize>> = match subset {
            Subset::MovableAndFixed => vec![ranges.movable.clone(), ranges.fixed.clone()],
            Subset::Fillers => vec![ranges.filler.clone()],
            Subset::All => {
                vec![
                    ranges.movable.clone(),
                    ranges.fixed.clone(),
                    ranges.filler.clone(),
                ]
            }
        };
        assert_eq!(
            self.footprints.len(),
            model.num_nodes(),
            "density operator used with another model"
        );
        let footprints = &self.footprints;
        let node_block = self.node_block;
        if node_range.iter().any(|r| r.len() > node_block) {
            // Blocked: chop every range into fixed node_block-sized blocks
            // (empty ranges contribute none, so no worker ever runs over an
            // empty slice or merges an all-zero map), accumulate each block
            // into its own partial map on the pool, and merge in block
            // order. The block grid is independent of `threads`, so the
            // summation order — and the result — is bit-identical for any
            // width.
            let blocks: Vec<std::ops::Range<usize>> = node_range
                .iter()
                .flat_map(|r| {
                    let end = r.end;
                    r.clone()
                        .step_by(node_block)
                        .map(move |lo| lo..(lo + node_block).min(end))
                })
                .collect();
            let (nx, ny) = (self.nx, self.ny);
            if self.blocks.len() < blocks.len() {
                self.blocks
                    .resize_with(blocks.len(), || (Grid2::new(nx, ny), Vec::new()));
            }
            let partials = &mut self.blocks[..blocks.len()];
            xplace_parallel::global().run_mut(partials, self.threads, |b, (local, oy)| {
                local.fill_zero();
                accumulate_nodes::run(&binning, model, blocks[b].clone(), footprints, oy, local);
            });
            for (p, _) in partials.iter() {
                map.add_assign_grid(p);
            }
            return;
        }
        for range in node_range {
            accumulate_nodes::run(&binning, model, range, footprints, &mut self.oy, map);
        }
    }

    fn accumulation_kernel(name: &'static str, nodes: usize) -> KernelInfo {
        // Each node reads position+size (~32 B) and, with sqrt(2)-bin
        // smoothing, read-modify-writes at least a 3x3 patch of bins
        // (~9 * 16 B of scattered atomics, the dominant traffic).
        KernelInfo::new(name)
            .bytes(nodes as u64 * 176)
            .flops(nodes as u64 * 100)
    }

    /// Accumulates the movable+fixed density map `D` (one kernel).
    pub fn accumulate_movable(&mut self, device: &Device, model: &PlacementModel) {
        let n = model.num_movable() + model.num_fixed();
        let kernel = Self::accumulation_kernel("density_map_movable", n);
        device.launch(kernel, || {
            self.accumulate(model, Subset::MovableAndFixed, Subset::MovableAndFixed)
        });
    }

    /// Accumulates the filler density map `D_fl` (one kernel).
    pub fn accumulate_fillers(&mut self, device: &Device, model: &PlacementModel) {
        let kernel = Self::accumulation_kernel("density_map_fillers", model.num_fillers());
        device.launch(kernel, || {
            self.accumulate(model, Subset::Fillers, Subset::Fillers)
        });
    }

    /// Element-wise add `D + D_fl` into the total map (one cheap kernel) —
    /// the extraction path of §3.1.2.
    pub fn combine_total(&mut self, device: &Device) {
        let bins = (self.nx * self.ny) as u64;
        let kernel = KernelInfo::new("density_combine")
            .bytes(bins * 24)
            .flops(bins);
        device.launch(kernel, || {
            self.total_map.fill_zero();
            self.total_map.add_assign_grid(&self.movable_map);
            self.total_map.add_assign_grid(&self.filler_map);
        });
    }

    /// Accumulates the total map directly over every node (one heavy
    /// kernel) — the non-extracted baseline path, which then still needs a
    /// separate [`DensityOp::accumulate_movable`] for the overflow ratio.
    pub fn accumulate_all(&mut self, device: &Device, model: &PlacementModel) {
        let kernel = Self::accumulation_kernel("density_map_all", model.num_nodes());
        device.launch(kernel, || self.accumulate(model, Subset::All, Subset::All));
    }

    /// The overflow ratio OVFL (Eq. 7) over the movable+fixed map.
    ///
    /// The scalar is consumed on the host for parameter scheduling, so the
    /// caller is expected to [`Device::synchronize`] afterwards.
    pub fn overflow(&self, device: &Device, model: &PlacementModel) -> f64 {
        let bins = (self.nx * self.ny) as u64;
        let kernel = KernelInfo::new("overflow").bytes(bins * 8).flops(bins * 3);
        device.launch(kernel, || {
            let bin_area = model.bin_w() * model.bin_h();
            let target = model.target_density();
            let over: f64 = self
                .movable_map
                .as_slice()
                .iter()
                .map(|&d| (d - target).max(0.0) * bin_area)
                .sum();
            over / model.movable_area()
        })
    }

    /// The two spectral kernel descriptors for one Poisson solve on an
    /// `nx x ny` grid: the packed-real analysis pass and the fused
    /// scale-plus-synthesis pass.
    ///
    /// With the real-FFT engine the analysis reads/writes one real grid
    /// (`m * 8 * 2` bytes, `5 m log m` flops — half the traffic of the old
    /// complex path), while the fused synthesis streams the shared spectrum
    /// into three output grids (`m * 8 * 4` bytes, `15 m log m` flops for
    /// the three inverse transforms). Exposed so the spectral microbench
    /// charges exactly the kernels the GP loop launches.
    pub fn spectral_kernels(nx: usize, ny: usize) -> [KernelInfo; 2] {
        let m = (nx * ny) as u64;
        let logm = (usize::BITS - nx.leading_zeros()) as u64;
        [
            KernelInfo::new("electro_rfft2")
                .bytes(m * 8 * 2)
                .flops(m * 5 * logm),
            KernelInfo::new("electro_irfft2_fields")
                .bytes(m * 8 * 4)
                .flops(m * 15 * logm),
        ]
    }

    /// Solves the electrostatic system on the total map, caching the
    /// field (two kernels: the packed-real forward analysis and the fused
    /// scale+synthesis pass, matching the `rfft2`/`irfft2` pair the paper
    /// uses). The iteration reads only `Ex`/`Ey`, so the solve synthesizes
    /// those two streams ([`SolveOutputs::Field`], 6 of the 8 transform
    /// streams); the potential and energy come from
    /// [`DensityOp::energy`] when something reads them. The modeled kernel
    /// descriptors are unchanged.
    ///
    /// # Errors
    ///
    /// Returns [`OpsError::Spectral`] on grid mismatch (an internal
    /// invariant violation).
    pub fn solve_field(&mut self, device: &Device) -> Result<(), OpsError> {
        let [analysis, fields] = Self::spectral_kernels(self.nx, self.ny);
        let solver = &mut self.solver;
        let solution = &mut self.solution;
        let total = &self.total_map;
        let mut result = Ok(());
        device.launch(analysis, || {
            // Analysis + field synthesis happen inside the solver; charge
            // the fused synthesis separately below.
        });
        device.launch(fields, || {
            result = solver
                .solve_outputs(total, solution, SolveOutputs::Field)
                .map_err(OpsError::from);
        });
        result
    }

    /// The electrostatic energy `0.5 sum(rho psi)` of the current total
    /// map, computed on demand through the solver's potential passes
    /// ([`SolveOutputs::Potential`]) — bit-identical to the energy a full
    /// solve of the same map returns. Host-side: no kernel is launched, so
    /// reading it leaves the modeled profile untouched.
    ///
    /// # Errors
    ///
    /// Returns [`OpsError::Spectral`] on grid mismatch (an internal
    /// invariant violation).
    pub fn energy(&mut self) -> Result<f64, OpsError> {
        self.solver
            .solve_outputs(&self.total_map, &mut self.solution, SolveOutputs::Potential)?;
        Ok(self.solution.energy)
    }

    /// Blends externally predicted field maps into the cached solution
    /// (Eq. 14 of the paper): `E <- (1 - sigma) E + sigma E_pred`, one
    /// element-wise kernel. Used by the neural-guidance extension.
    ///
    /// # Panics
    ///
    /// Panics if the predicted grids do not match the solver grid.
    pub fn blend_field(
        &mut self,
        device: &Device,
        pred_x: &xplace_fft::Grid2,
        pred_y: &xplace_fft::Grid2,
        sigma: f64,
    ) {
        assert_eq!(
            pred_x.dims(),
            (self.nx, self.ny),
            "predicted field grid mismatch"
        );
        assert_eq!(
            pred_y.dims(),
            (self.nx, self.ny),
            "predicted field grid mismatch"
        );
        let bins = (self.nx * self.ny) as u64;
        let kernel = KernelInfo::new("field_blend")
            .bytes(bins * 32)
            .flops(bins * 4);
        device.launch(kernel, || {
            let keep = 1.0 - sigma;
            for (dst, src) in self
                .solution
                .field_x
                .as_mut_slice()
                .iter_mut()
                .zip(pred_x.as_slice())
            {
                *dst = keep * *dst + sigma * *src;
            }
            for (dst, src) in self
                .solution
                .field_y
                .as_mut_slice()
                .iter_mut()
                .zip(pred_y.as_slice())
            {
                *dst = keep * *dst + sigma * *src;
            }
        });
    }

    /// The descriptor of the density-gradient kernel `lambda * dD/dx_i`
    /// over movable cells and fillers.
    pub fn gradient_kernel(model: &PlacementModel) -> KernelInfo {
        let n = (model.num_movable() + model.num_fillers()) as u64;
        KernelInfo::new("density_gradient")
            .bytes(n * 48)
            .flops(n * 8)
    }

    /// The fused host pass of one iteration over the optimizable nodes:
    /// for each node it samples the cached field at the node center's bin
    /// (converted from bin units to database units) once, then
    ///
    /// 1. adds `|q_i E_x| + |q_i E_y|` of movable cells to the unit-λ
    ///    density-gradient norm (λ initialization and the operator-skipping
    ///    ratio `r` of §3.1.4), which it returns;
    /// 2. when `lambda > 0`, accumulates the density gradient
    ///    `lambda * dD/dx_i = -lambda q_i E(b_i)` (`q_i` is the node area);
    /// 3. divides the gradient by the preconditioner
    ///    [`crate::precond::diagonal`].
    ///
    /// Each node goes through the same operations as in three separate
    /// passes (the test oracle), and the norm sums movable cells in index
    /// order, so every output bit is theirs. Runs on the host with no
    /// launch of its own: the caller charges the `density_gradient` and
    /// `precondition` kernels.
    ///
    /// # Panics
    ///
    /// Panics if the gradient slices are shorter than the node count.
    pub fn gradient_pass(
        &self,
        model: &PlacementModel,
        lambda: f64,
        grad_x: &mut [f64],
        grad_y: &mut [f64],
    ) -> f64 {
        let n = model.num_nodes();
        assert!(grad_x.len() >= n && grad_y.len() >= n);
        let ranges = model.ranges();
        let pass = GradientPass {
            region: model.region(),
            inv_bw: 1.0 / model.bin_w(),
            inv_bh: 1.0 / model.bin_h(),
            nx: self.nx,
            ny: self.ny,
            lambda,
            field_x: self.solution.field_x.as_slice(),
            field_y: self.solution.field_y.as_slice(),
        };
        let mut norm = 0.0;
        pass.run(model, ranges.movable, grad_x, grad_y, Some(&mut norm));
        pass.run(model, ranges.filler, grad_x, grad_y, None);
        norm
    }
}

/// The loop constants of [`DensityOp::gradient_pass`].
struct GradientPass<'a> {
    region: xplace_db::Rect,
    inv_bw: f64,
    inv_bh: f64,
    nx: usize,
    ny: usize,
    lambda: f64,
    field_x: &'a [f64],
    field_y: &'a [f64],
}

impl GradientPass<'_> {
    /// The pass over the nodes `range`, summing their norm into `norm`
    /// when given.
    fn run(
        &self,
        model: &PlacementModel,
        range: std::ops::Range<usize>,
        grad_x: &mut [f64],
        grad_y: &mut [f64],
        mut norm: Option<&mut f64>,
    ) {
        let (inv_bw, inv_bh, lambda) = (self.inv_bw, self.inv_bh, self.lambda);
        for i in range {
            let bx = (((model.x[i] - self.region.lx) * inv_bw) as usize).min(self.nx - 1);
            let by = (((model.y[i] - self.region.ly) * inv_bh) as usize).min(self.ny - 1);
            let bin = bx * self.ny + by;
            let (ex, ey) = (self.field_x[bin], self.field_y[bin]);
            let q = model.node_area(i);
            if let Some(norm) = norm.as_deref_mut() {
                *norm += (q * ex * inv_bw).abs() + (q * ey * inv_bh).abs();
            }
            if lambda > 0.0 {
                grad_x[i] -= lambda * q * ex * inv_bw;
                grad_y[i] -= lambda * q * ey * inv_bh;
            }
            let h = crate::precond::diagonal(model, lambda, i);
            grad_x[i] /= h;
            grad_y[i] /= h;
        }
    }
}

/// The per-bin accumulation the hoisted loop replaced: both overlaps are
/// evaluated for every bin. Kept as the bit-exact oracle of
/// [`Binning::accumulate_node`].
#[cfg(test)]
mod per_bin {
    use super::{Binning, Grid2, PlacementModel};

    fn accumulate_node(b: &Binning, model: &PlacementModel, i: usize, map: &mut Grid2) {
        if model.w[i] <= 0.0 || model.h[i] <= 0.0 {
            return;
        }
        let (lx, ux, ly, uy, scale) = Binning::charge(model, i, b.footprint(model, i));
        let (bx0, bx1, by0, by1) = b.bins(lx, ux, ly, uy);
        for bx in bx0..bx1 {
            let b_lx = b.region.lx + bx as f64 * b.bin_w;
            let ox = (ux.min(b_lx + b.bin_w) - lx.max(b_lx)).max(0.0);
            if ox == 0.0 {
                continue;
            }
            for by in by0..by1 {
                let b_ly = b.region.ly + by as f64 * b.bin_h;
                let oy = (uy.min(b_ly + b.bin_h) - ly.max(b_ly)).max(0.0);
                if oy > 0.0 {
                    map[(bx, by)] += ox * oy * scale * b.inv_bin_area;
                }
            }
        }
    }

    /// The map of `ranges` as the old kernel built it: serially when every
    /// range fits one block, else one fresh partial map per `node_block`
    /// nodes, merged in block order.
    pub(super) fn map(
        model: &PlacementModel,
        ranges: &[std::ops::Range<usize>],
        node_block: usize,
    ) -> Grid2 {
        let (nx, ny) = model.grid_dims();
        let b = Binning::new(model, nx, ny);
        let mut map = Grid2::new(nx, ny);
        if ranges.iter().all(|r| r.len() <= node_block) {
            for i in ranges.iter().flat_map(|r| r.clone()) {
                accumulate_node(&b, model, i, &mut map);
            }
            return map;
        }
        for r in ranges {
            for lo in r.clone().step_by(node_block) {
                let mut local = Grid2::new(nx, ny);
                for i in lo..(lo + node_block).min(r.end) {
                    accumulate_node(&b, model, i, &mut local);
                }
                map.add_assign_grid(&local);
            }
        }
        map
    }
}

/// The three host passes [`DensityOp::gradient_pass`] fused: the unit-λ
/// norm, the density gradient and the preconditioner, each its own loop.
/// Kept as the bit-exact oracle of the fused pass.
#[cfg(test)]
mod unfused {
    use super::{DensityOp, PlacementModel};

    fn sample(op: &DensityOp, model: &PlacementModel, i: usize) -> (f64, f64) {
        let region = model.region();
        let (nx, ny) = op.grid_dims();
        let bx = (((model.x[i] - region.lx) * (1.0 / model.bin_w())) as usize).min(nx - 1);
        let by = (((model.y[i] - region.ly) * (1.0 / model.bin_h())) as usize).min(ny - 1);
        (op.field().field_x[(bx, by)], op.field().field_y[(bx, by)])
    }

    pub(super) fn passes(
        op: &DensityOp,
        model: &PlacementModel,
        lambda: f64,
        grad_x: &mut [f64],
        grad_y: &mut [f64],
    ) -> f64 {
        let (inv_bw, inv_bh) = (1.0 / model.bin_w(), 1.0 / model.bin_h());
        let mut norm = 0.0;
        for i in 0..model.num_movable() {
            let (ex, ey) = sample(op, model, i);
            let q = model.node_area(i);
            norm += (q * ex * inv_bw).abs() + (q * ey * inv_bh).abs();
        }
        if lambda > 0.0 {
            for i in model.optimizable_indices() {
                let (ex, ey) = sample(op, model, i);
                let q = model.node_area(i);
                grad_x[i] -= lambda * q * ex * inv_bw;
                grad_y[i] -= lambda * q * ey * inv_bh;
            }
        }
        for i in model.optimizable_indices() {
            let h = (model.node_degree[i] as f64 + lambda * model.node_area(i)).max(1.0);
            grad_x[i] /= h;
            grad_y[i] /= h;
        }
        norm
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xplace_db::synthesis::{synthesize, SynthesisSpec};
    use xplace_device::DeviceConfig;
    use xplace_testkit::prop::{self, Config, Strategy};
    use xplace_testkit::rng::Rng;
    use xplace_testkit::{prop_assert, props};

    /// A design with macros, its movable cells and fillers scattered with
    /// a quarter of them straddling or beyond the region edge, and a node
    /// block from tiny to the production size.
    fn oracle_case() -> impl Strategy<Value = (PlacementModel, usize)> {
        prop::from_fn(|rng: &mut Rng| {
            let cells = rng.gen_range(60usize..300);
            let spec = SynthesisSpec::new("oracle", cells, cells + 10)
                .with_seed(rng.gen_range(0u64..10_000))
                .with_macro_count(rng.gen_range(1usize..4));
            let mut m = PlacementModel::from_design(&synthesize(&spec).unwrap()).unwrap();
            let r = m.region();
            let ranges = m.ranges();
            for i in ranges.movable.chain(ranges.filler) {
                let (fx, fy) = if rng.gen_range(0u32..4) == 0 {
                    // On an edge, sometimes a little past it.
                    let t = [-0.01, 0.0, 1.0, 1.01][rng.gen_range(0usize..4)];
                    (t, rng.gen_range(0.0..1.0))
                } else {
                    (rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0))
                };
                let (fx, fy) = if rng.gen_range(0u32..2) == 0 {
                    (fx, fy)
                } else {
                    (fy, fx)
                };
                m.x[i] = r.lx + fx * r.width();
                m.y[i] = r.ly + fy * r.height();
            }
            let node_block = [1, 5, 64, NODE_BLOCK][rng.gen_range(0usize..4)];
            (m, node_block)
        })
    }

    fn same_bits(a: &Grid2, b: &Grid2) -> bool {
        a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
    }

    props! {
        config = Config::with_cases(30);

        /// The hoisted accumulation equals the per-bin loop bit for bit on
        /// every map, serial and blocked, at widths 1 and 2.
        fn hoisted_accumulation_matches_per_bin_loop_bitwise(case in oracle_case()) {
            let (model, node_block) = case;
            let device = Device::new(DeviceConfig::instant());
            let r = model.ranges();
            let want_movable = per_bin::map(&model, &[r.movable.clone(), r.fixed.clone()], node_block);
            let want_fillers = per_bin::map(&model, std::slice::from_ref(&r.filler), node_block);
            let want_all = per_bin::map(&model, &[r.movable, r.fixed, r.filler], node_block);
            for threads in [1, 2] {
                let mut op = DensityOp::new(&model).unwrap();
                op.set_node_block(node_block);
                op.set_threads(threads);
                op.accumulate_movable(&device, &model);
                op.accumulate_fillers(&device, &model);
                op.accumulate_all(&device, &model);
                prop_assert!(same_bits(&op.movable_map, &want_movable),
                    "movable map differs (block {node_block}, width {threads})");
                prop_assert!(same_bits(&op.filler_map, &want_fillers),
                    "filler map differs (block {node_block}, width {threads})");
                prop_assert!(same_bits(&op.total_map, &want_all),
                    "total map differs (block {node_block}, width {threads})");
            }
        }

        /// The fused gradient pass equals the three separate passes bit
        /// for bit: the norm and every gradient entry, for λ = 0 and λ > 0.
        fn fused_gradient_pass_matches_separate_passes_bitwise(case in oracle_case()) {
            let (model, _) = case;
            let device = Device::new(DeviceConfig::instant());
            let mut op = DensityOp::new(&model).unwrap();
            op.accumulate_all(&device, &model);
            op.solve_field(&device).unwrap();
            let n = model.num_nodes();
            let start: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
            for lambda in [0.0, 1e-7, 3.5] {
                let (mut gx0, mut gy0) = (start.clone(), start.clone());
                let want = unfused::passes(&op, &model, lambda, &mut gx0, &mut gy0);
                let (mut gx1, mut gy1) = (start.clone(), start.clone());
                let got = op.gradient_pass(&model, lambda, &mut gx1, &mut gy1);
                prop_assert!(got.to_bits() == want.to_bits(), "norm {got} vs {want}");
                prop_assert!(gx1.iter().zip(&gx0).all(|(a, b)| a.to_bits() == b.to_bits()),
                    "grad_x differs (lambda {lambda})");
                prop_assert!(gy1.iter().zip(&gy0).all(|(a, b)| a.to_bits() == b.to_bits()),
                    "grad_y differs (lambda {lambda})");
            }
        }
    }

    props! {
        config = Config::with_cases(16);

        /// The AVX2 build of the accumulation equals its portable build bit
        /// for bit.
        fn accumulation_agrees_across_builds(case in oracle_case()) {
            if !xplace_parallel::simd::avx2_or_note("accumulation_agrees_across_builds") {
                return Ok(());
            }
            let (model, node_block) = case;
            let op = DensityOp::new(&model).unwrap();
            let (nx, ny) = model.grid_dims();
            let binning = Binning::new(&model, nx, ny);
            let n = model.num_nodes();
            for lo in (0..n).step_by(node_block) {
                let nodes = lo..(lo + node_block).min(n);
                let (mut want, mut got) = (Grid2::new(nx, ny), Grid2::new(nx, ny));
                let mut oy = Vec::new();
                accumulate_nodes::portable(&binning, &model, nodes.clone(), &op.footprints, &mut oy, &mut want);
                // SAFETY: the CPU supports AVX2.
                unsafe { accumulate_nodes::avx2(&binning, &model, nodes, &op.footprints, &mut oy, &mut got) };
                prop_assert!(same_bits(&got, &want), "map differs from node {lo}");
            }
        }
    }

    fn setup() -> (PlacementModel, DensityOp, Device) {
        let design = synthesize(
            &SynthesisSpec::new("d", 500, 520)
                .with_seed(21)
                .with_macro_count(2),
        )
        .unwrap();
        let model = PlacementModel::from_design(&design).unwrap();
        let op = DensityOp::new(&model).unwrap();
        (model, op, Device::new(DeviceConfig::instant()))
    }

    fn spread(model: &mut PlacementModel) {
        let r = model.region();
        let ranges = model.ranges();
        for i in ranges.movable.chain(ranges.filler) {
            model.x[i] = r.lx + ((i as f64) * 0.7548).fract() * r.width();
            model.y[i] = r.ly + ((i as f64) * 0.5698).fract() * r.height();
        }
        model.clamp_to_region();
    }

    #[test]
    fn density_map_conserves_movable_area() {
        let (mut model, mut op, device) = setup();
        spread(&mut model);
        op.accumulate_movable(&device, &model);
        let bin_area = model.bin_w() * model.bin_h();
        let mapped: f64 = op.movable_map.sum() * bin_area;
        let mut actual = model.movable_area();
        let region = model.region();
        for i in model.ranges().fixed {
            let r = xplace_db::Rect::from_center(
                xplace_db::Point::new(model.x[i], model.y[i]),
                model.w[i],
                model.h[i],
            );
            // Fixed cells contribute at the target density.
            actual += r.overlap_area(&region) * model.target_density();
        }
        assert!(
            (mapped - actual).abs() < actual * 0.01,
            "mapped {mapped} vs actual {actual}"
        );
    }

    #[test]
    fn extraction_path_equals_direct_path() {
        let (mut model, mut op, device) = setup();
        spread(&mut model);
        // Extracted: D, D_fl, add.
        op.accumulate_movable(&device, &model);
        op.accumulate_fillers(&device, &model);
        op.combine_total(&device);
        let extracted = op.total_map.clone();
        // Direct: single pass over all nodes.
        op.accumulate_all(&device, &model);
        assert!(op.total_map.max_abs_diff(&extracted) < 1e-9);
    }

    #[test]
    fn overflow_is_high_when_clustered_low_when_spread() {
        let (mut model, mut op, device) = setup();
        // Clustered at center (initial synthetic state).
        op.accumulate_movable(&device, &model);
        let clustered = op.overflow(&device, &model);
        spread(&mut model);
        op.accumulate_movable(&device, &model);
        let spread_ovfl = op.overflow(&device, &model);
        assert!(clustered > 0.5, "clustered overflow {clustered}");
        assert!(
            spread_ovfl < clustered * 0.5,
            "spread {spread_ovfl} vs {clustered}"
        );
    }

    #[test]
    fn gradient_pushes_cells_away_from_cluster() {
        let (mut model, mut op, device) = setup();
        // Most movable cells sit at the center; displace a few probes to
        // known off-center positions. The density gradient must point
        // outward (a negative-gradient step moves a right-of-center probe
        // further right).
        let c = model.region().center();
        let w = model.region().width();
        for (k, i) in (0..8usize).enumerate() {
            model.x[i] = c.x + (k as f64 - 3.5) * w * 0.1;
        }
        op.accumulate_movable(&device, &model);
        op.accumulate_fillers(&device, &model);
        op.combine_total(&device);
        op.solve_field(&device).unwrap();
        let n = model.num_nodes();
        let (mut gx, mut gy) = (vec![0.0; n], vec![0.0; n]);
        // Unit degrees and areas would rescale each entry by a positive
        // preconditioner; the sign is what is checked.
        op.gradient_pass(&model, 1.0, &mut gx, &mut gy);
        let c = model.region().center();
        let mut checked = 0;
        for i in 0..model.num_movable() {
            let dx = model.x[i] - c.x;
            if dx.abs() > model.bin_w() {
                // -grad points outward: grad_x must have the opposite sign
                // of the displacement... i.e. moving along -grad increases |dx|.
                assert!(gx[i] * dx <= 1e-12, "cell {i}: dx={dx}, gx={}", gx[i]);
                checked += 1;
            }
        }
        assert!(checked > 0, "no off-center cells to check");
    }

    #[test]
    fn energy_decreases_as_cells_spread() {
        let (mut model, mut op, device) = setup();
        op.accumulate_all(&device, &model);
        op.solve_field(&device).unwrap();
        let clustered = op.energy().unwrap();
        spread(&mut model);
        op.accumulate_all(&device, &model);
        op.solve_field(&device).unwrap();
        let spread_e = op.energy().unwrap();
        assert!(spread_e < clustered, "{spread_e} vs {clustered}");
    }

    #[test]
    fn terminals_contribute_no_density() {
        let (model, mut op, device) = setup();
        op.accumulate_movable(&device, &model);
        let with_terms = op.movable_map.sum();
        // Terminals have zero area; the sum is unaffected by their
        // presence (they are skipped). Sanity: the map is finite and
        // non-negative.
        assert!(with_terms.is_finite());
        assert!(op.movable_map.min() >= 0.0);
    }

    #[test]
    fn launch_accounting_distinguishes_paths() {
        let (mut model, mut op, device) = setup();
        spread(&mut model);
        let (_, extracted) = device.scoped(|| {
            op.accumulate_movable(&device, &model);
            op.accumulate_fillers(&device, &model);
            op.combine_total(&device);
        });
        let (_, direct) = device.scoped(|| {
            op.accumulate_all(&device, &model);
            op.accumulate_movable(&device, &model);
        });
        assert_eq!(extracted.launches, 3);
        assert_eq!(direct.launches, 2);
        // The direct path touches more node data overall (movable pass
        // happens twice), so its modeled execution is at least as large.
        let d = Device::new(DeviceConfig::rtx3090());
        let (_, e2) = d.scoped(|| {
            op.accumulate_movable(&d, &model);
            op.accumulate_fillers(&d, &model);
            op.combine_total(&d);
        });
        let (_, d2) = d.scoped(|| {
            op.accumulate_all(&d, &model);
            op.accumulate_movable(&d, &model);
        });
        assert!(
            d2.exec_ns >= e2.exec_ns,
            "direct {} vs extracted {}",
            d2.exec_ns,
            e2.exec_ns
        );
    }

    #[test]
    fn gradient_norm_positive_when_clustered() {
        let (model, mut op, device) = setup();
        op.accumulate_all(&device, &model);
        op.solve_field(&device).unwrap();
        let n = model.num_nodes();
        let (mut gx, mut gy) = (vec![0.0; n], vec![0.0; n]);
        assert!(op.gradient_pass(&model, 0.0, &mut gx, &mut gy) > 0.0);
    }
}
