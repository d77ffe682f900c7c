//! Wirelength operators: HPWL and the stable weighted-average wirelength.
//!
//! Three operator granularities are provided, matching the paper's
//! operator-combination story (§3.1.1):
//!
//! * [`hpwl`] — the exact half-perimeter wirelength, one kernel,
//! * [`wa_with_grad`] — the merged WA-objective-and-gradient kernel of
//!   DREAMPlace (computes the per-net min/max internally),
//! * [`wa_fused`] — Xplace's combined kernel: WA wirelength, WA gradient
//!   **and** HPWL in a single pass sharing one min/max computation,
//! * [`wa_forward`] / [`wa_backward`] — the split pair used when the
//!   autograd tape drives the backward pass (operator reduction *off*).
//!
//! All WA math uses the numerically stable form of Eq. (6): exponents are
//! shifted by the per-net extrema so they never overflow.

use crate::PlacementModel;
use xplace_device::{Device, KernelInfo};
use xplace_parallel::WorkerPool;

/// Per-pin scratch of one net: each pin's coordinates and its four WA
/// exponentials (see [`Lanes`]), written by the sum pass and read back by
/// the gradient pass so no exponential is evaluated twice.
#[derive(Debug, Clone, Default)]
struct PinCache {
    x: Vec<f64>,
    y: Vec<f64>,
    a: Vec<Lanes>,
}

impl PinCache {
    /// Grows every buffer to hold at least `degree` pins.
    fn reserve(&mut self, degree: usize) {
        if self.x.len() < degree {
            self.x.resize(degree, 0.0);
            self.y.resize(degree, 0.0);
            self.a.resize(degree, [0.0; 4]);
        }
    }
}

/// One net block's scratch: its `(grad_x, grad_y)` accumulators and its
/// pin cache.
#[derive(Debug, Clone, Default)]
struct BlockSlot {
    grad_x: Vec<f64>,
    grad_y: Vec<f64>,
    pins: PinCache,
}

/// Reusable per-block scratch for the fused wirelength kernel.
///
/// The blocked kernel needs two `num_movable`-long gradient accumulators per
/// net block, and every pass needs a pin cache as long as the largest net.
/// Allocating them fresh on every call puts allocations on the hottest path
/// of every GP iteration; a workspace hoists them into slots that persist
/// across calls (task `b` always uses slot `b`, its accumulators zero-filled
/// before each pass and its pin cache fully rewritten per net, so reuse is
/// bitwise-identical to fresh buffers). The single-block path uses slot 0's
/// pin cache.
#[derive(Debug, Clone, Default)]
pub struct WaWorkspace {
    /// One slot per net block, grown on demand.
    slots: Vec<BlockSlot>,
}

impl WaWorkspace {
    /// Creates an empty workspace; slots are allocated on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ensures at least `blocks` slots, with accumulators of length `nm`
    /// when the kernel is blocked.
    fn prepare(&mut self, blocks: usize, nm: usize) {
        if self.slots.len() < blocks {
            self.slots.resize_with(blocks, Default::default);
        }
        if blocks > 1 {
            for slot in &mut self.slots[..blocks] {
                slot.grad_x.resize(nm, 0.0);
                slot.grad_y.resize(nm, 0.0);
            }
        }
    }
}

/// Result of the fused wirelength kernel.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FusedWirelength {
    /// Weighted-average smoothed wirelength (Eq. 6), summed over nets.
    pub wa: f64,
    /// Exact HPWL (Eq. 2), summed over nets.
    pub hpwl: f64,
}

#[inline]
fn net_range(model: &PlacementModel, e: usize) -> (usize, usize) {
    (model.net_start[e] as usize, model.net_start[e + 1] as usize)
}

#[inline]
fn pin_pos(model: &PlacementModel, p: usize) -> (f64, f64) {
    let n = model.pin_node[p] as usize;
    (model.x[n] + model.pin_dx[p], model.y[n] + model.pin_dy[p])
}

fn bounds_of_net(model: &PlacementModel, s: usize, t: usize) -> (f64, f64, f64, f64) {
    let (mut min_x, mut max_x) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut min_y, mut max_y) = (f64::INFINITY, f64::NEG_INFINITY);
    for p in s..t {
        let (px, py) = pin_pos(model, p);
        min_x = min_x.min(px);
        max_x = max_x.max(px);
        min_y = min_y.min(py);
        max_y = max_y.max(py);
    }
    (min_x, max_x, min_y, max_y)
}

/// Exact total HPWL, as one kernel launch.
pub fn hpwl(device: &Device, model: &PlacementModel) -> f64 {
    let kernel = KernelInfo::new("hpwl")
        .bytes(model.num_pins() as u64 * 24)
        .flops(model.num_pins() as u64 * 8);
    device.launch(kernel, || {
        let mut total = 0.0;
        for e in 0..model.num_nets() {
            let (s, t) = net_range(model, e);
            if t - s < 2 {
                continue;
            }
            let (min_x, max_x, min_y, max_y) = bounds_of_net(model, s, t);
            total += model.net_weight[e] * ((max_x - min_x) + (max_y - min_y));
        }
        total
    })
}

/// The four independent WA quantities of a pin or a net, one lane each:
/// `x+`, `x-`, `y+`, `y-` (the positive and negative exponent sums of each
/// axis). Every per-lane step is the scalar formula of its lane, so the
/// lanes vectorize without changing a bit.
type Lanes = [f64; 4];

/// `+1` on the positive lanes, `-1` on the negative ones: `1 + SIGN * t`
/// is `1 + t` or `1 - t` exactly (IEEE `a - b` is `a + (-b)`).
const SIGN: Lanes = [1.0, -1.0, 1.0, -1.0];

/// `arg.exp()`, counted per thread in test builds so the tests can pin how
/// many exponentials a WA pass evaluates. With `PORT` it is glibc's own
/// `exp` inlined ([`crate::exp`]), which returns the same bits.
#[inline(always)]
fn counted_exp<const PORT: bool>(arg: f64) -> f64 {
    #[cfg(test)]
    EXP_CALLS.with(|c| c.set(c.get() + 1));
    if PORT {
        crate::exp::exp(arg)
    } else {
        arg.exp()
    }
}

#[cfg(test)]
thread_local! {
    static EXP_CALLS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// The WA exponent arguments of a pin at `(vx, vy)` in a net with extrema
/// `lo = [min_x, min_y]`, `hi = [max_x, max_y]`: `(v - max) * inv_gamma`
/// on the positive lanes, `(min - v) * inv_gamma` on the negative ones.
#[inline(always)]
fn exp_args(vx: f64, vy: f64, lo: [f64; 2], hi: [f64; 2], inv_gamma: f64) -> Lanes {
    [
        (vx - hi[0]) * inv_gamma,
        (lo[0] - vx) * inv_gamma,
        (vy - hi[1]) * inv_gamma,
        (lo[1] - vy) * inv_gamma,
    ]
}

/// The WA exponentials of every pin of a net, without the `exp` calls
/// whose value is already known; each stored value is the one `exp`
/// returns for its argument.
///
/// A pin at a net extreme has `v - max == +0` (or `min - v == +0`), so
/// its argument is `±0` and `exp` returns exactly `1.0`. In a degree-2 net
/// the two off-extreme arguments of an axis are the same expression
/// (`min - max` times `inv_gamma`, once as `v0 - max` and once as
/// `min - v1`, or the mirror), so one call serves the axis; its values are
/// picked by comparing argument bits, without a data-dependent branch.
///
/// No `exp` call sits in a closure: a closure is compiled without the
/// AVX2+FMA build's features, so the inlined port's `mul_add`s would
/// become libm calls.
#[inline(always)]
fn net_exps<const PORT: bool>(
    x: &[f64],
    y: &[f64],
    lo: [f64; 2],
    hi: [f64; 2],
    inv_gamma: f64,
    a: &mut [Lanes],
) {
    if let ([x0, x1], [y0, y1], [a0, a1]) = (x, y, &mut *a) {
        let (p0, p1) = (
            exp_args(*x0, *y0, lo, hi, inv_gamma),
            exp_args(*x1, *y1, lo, hi, inv_gamma),
        );
        for axis in [0, 2] {
            let off = if p0[axis] != 0.0 {
                p0[axis]
            } else {
                p0[axis + 1]
            };
            let e = counted_exp::<PORT>(off);
            for j in [axis, axis + 1] {
                a0[j] = picked_exp::<PORT>(p0[j], off, e);
            }
            for j in [axis, axis + 1] {
                a1[j] = picked_exp::<PORT>(p1[j], off, e);
            }
        }
        return;
    }
    for ((&vx, &vy), a) in x.iter().zip(y).zip(a.iter_mut()) {
        for (a, arg) in a.iter_mut().zip(exp_args(vx, vy, lo, hi, inv_gamma)) {
            *a = if arg == 0.0 {
                1.0
            } else {
                counted_exp::<PORT>(arg)
            };
        }
    }
}

/// The exponential of `arg` in a degree-2 net's axis whose off-extreme
/// argument `off` has the exponential `e`: `e` for `arg` bitwise equal to
/// `off`, `1.0` for `±0`.
#[inline(always)]
fn picked_exp<const PORT: bool>(arg: f64, off: f64, e: f64) -> f64 {
    let same = arg.to_bits() == off.to_bits();
    if !same && arg != 0.0 {
        // Only a non-finite coordinate or gamma gets here.
        return counted_exp::<PORT>(arg);
    }
    if same {
        e
    } else {
        1.0
    }
}

/// WA value and gradient of net `e` over pins `s..t` (Eq. 6, stable form:
/// exponents shifted by the net extrema).
///
/// One pass reads each pin's position into the cache and finds the
/// extrema (HPWL); [`net_exps`] evaluates the four exponentials per pin
/// (skipping the ones whose value is known) into the cache, a second pass
/// accumulates the per-lane sums, and the gradient pass reuses the cached
/// values. Every quantity goes through the same IEEE operations in the
/// same order as the textbook two-pass formula that recomputes the
/// exponentials, so the result is bit-identical to it. `grad(p, dx, dy)`
/// receives each pin's weighted-average derivatives in pin order.
/// Returns `(hpwl, wa)`, both unweighted.
#[inline(always)]
fn wa_net<const PORT: bool>(
    model: &PlacementModel,
    s: usize,
    t: usize,
    inv_gamma: f64,
    cache: &mut PinCache,
    mut grad: impl FnMut(usize, f64, f64),
) -> (f64, f64) {
    let deg = t - s;
    cache.reserve(deg);
    let (x, y, a) = (
        &mut cache.x[..deg],
        &mut cache.y[..deg],
        &mut cache.a[..deg],
    );
    let (mut min_x, mut max_x) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut min_y, mut max_y) = (f64::INFINITY, f64::NEG_INFINITY);
    for ((px, py), p) in x.iter_mut().zip(y.iter_mut()).zip(s..t) {
        (*px, *py) = pin_pos(model, p);
        min_x = min_x.min(*px);
        max_x = max_x.max(*px);
        min_y = min_y.min(*py);
        max_y = max_y.max(*py);
    }
    net_exps::<PORT>(x, y, [min_x, min_y], [max_x, max_y], inv_gamma, a);
    let (mut sum, mut usum) = ([0.0; 4], [0.0; 4]);
    for ((&vx, &vy), a) in x.iter().zip(y.iter()).zip(a.iter()) {
        let v = [vx, vx, vy, vy];
        for j in 0..4 {
            sum[j] += a[j];
            usum[j] += v[j] * a[j];
        }
    }
    let wl: Lanes = std::array::from_fn(|j| usum[j] / sum[j]);
    for (((&vx, &vy), a), p) in x.iter().zip(y.iter()).zip(a.iter()).zip(s..t) {
        let v = [vx, vx, vy, vy];
        let d: Lanes =
            std::array::from_fn(|j| a[j] / sum[j] * (1.0 + SIGN[j] * ((v[j] - wl[j]) * inv_gamma)));
        grad(p, d[0] - d[1], d[2] - d[3]);
    }
    let hpwl = (max_x - min_x) + (max_y - min_y);
    let wa = (wl[0] - wl[1]) + (wl[2] - wl[3]);
    (hpwl, wa)
}

xplace_parallel::avx2_dispatch! {
    /// Serial WA pass over the net range `nets`, accumulating weighted
    /// gradients into `grad` when given. The AVX2+FMA build inlines
    /// glibc's own `exp` ([`crate::exp`]) when it matches libm here.
    fn wa_pass<const FMA: bool>(
        model: &PlacementModel,
        gamma: f64,
        nets: std::ops::Range<usize>,
        cache: &mut PinCache,
        grad: Option<(&mut [f64], &mut [f64])>,
    ) -> FusedWirelength {
        if FMA && crate::exp::use_port() {
            wa_nets::<true>(model, gamma, nets, cache, grad)
        } else {
            wa_nets::<false>(model, gamma, nets, cache, grad)
        }
    }
}

/// The body of [`wa_pass`], with the exponential `counted_exp::<PORT>`.
#[inline(always)]
fn wa_nets<const PORT: bool>(
    model: &PlacementModel,
    gamma: f64,
    nets: std::ops::Range<usize>,
    cache: &mut PinCache,
    mut grad: Option<(&mut [f64], &mut [f64])>,
) -> FusedWirelength {
    let nm = model.num_movable();
    let inv_gamma = 1.0 / gamma;
    let mut out = FusedWirelength::default();
    for e in nets {
        let (s, t) = net_range(model, e);
        if t - s < 2 {
            continue;
        }
        let weight = model.net_weight[e];
        let (hpwl, wa) = wa_net::<PORT>(model, s, t, inv_gamma, cache, |p, dx, dy| {
            if let Some((gx, gy)) = grad.as_mut() {
                let n = model.pin_node[p] as usize;
                if n < nm {
                    gx[n] += weight * dx;
                    gy[n] += weight * dy;
                }
            }
        });
        out.hpwl += weight * hpwl;
        out.wa += weight * wa;
    }
    out
}

/// [`wa_pass`] over every net with a fresh pin cache, for the kernels that
/// own no workspace.
fn wa_pass_all(
    model: &PlacementModel,
    gamma: f64,
    grad: Option<(&mut [f64], &mut [f64])>,
) -> FusedWirelength {
    wa_pass::run(
        model,
        gamma,
        0..model.num_nets(),
        &mut PinCache::default(),
        grad,
    )
}

/// The merged WA-objective-and-gradient kernel (DREAMPlace's granularity):
/// computes the WA wirelength and accumulates `d WA / d x_i` into
/// `grad_x`/`grad_y` for movable nodes, in one launch. HPWL is **not**
/// produced; DREAMPlace launches [`hpwl`] separately.
///
/// # Panics
///
/// Panics if the gradient slices are shorter than the movable-node count.
pub fn wa_with_grad(
    device: &Device,
    model: &PlacementModel,
    gamma: f64,
    grad_x: &mut [f64],
    grad_y: &mut [f64],
) -> f64 {
    assert!(grad_x.len() >= model.num_movable() && grad_y.len() >= model.num_movable());
    let kernel = KernelInfo::new("wa_with_grad")
        .bytes(model.num_pins() as u64 * 56)
        .flops(model.num_pins() as u64 * 60);
    device.launch(kernel, || {
        wa_pass_all(model, gamma, Some((grad_x, grad_y))).wa
    })
}

/// Xplace's combined kernel (§3.1.1): WA wirelength, WA gradient and HPWL
/// share a single pass and a single min/max computation.
///
/// # Panics
///
/// Panics if the gradient slices are shorter than the movable-node count.
pub fn wa_fused(
    device: &Device,
    model: &PlacementModel,
    gamma: f64,
    grad_x: &mut [f64],
    grad_y: &mut [f64],
) -> FusedWirelength {
    assert!(grad_x.len() >= model.num_movable() && grad_y.len() >= model.num_movable());
    device.launch(fused_kernel(model), || {
        wa_pass_all(model, gamma, Some((grad_x, grad_y)))
    })
}

/// The descriptor of the fused kernel, for every decomposition of it.
fn fused_kernel(model: &PlacementModel) -> KernelInfo {
    KernelInfo::new("wa_fused")
        .bytes(model.num_pins() as u64 * 56)
        .flops(model.num_pins() as u64 * 68)
}

/// Fixed net-block size for the blocked parallel wirelength decomposition.
///
/// The block grid depends only on the model size — never the thread count —
/// so the per-block partials and their fixed-order merge are identical for
/// every `threads` value: changing `threads` changes scheduling, not
/// arithmetic.
pub const NET_BLOCK: usize = 2048;

/// Multithreaded variant of [`wa_fused`]: the same single fused kernel,
/// with its body decomposed into fixed [`NET_BLOCK`]-net blocks executed on
/// the persistent worker pool. Each block accumulates into private gradient
/// buffers, merged in block order afterwards, so the result is bit-identical
/// for **any** thread count; designs that fit in one block take the plain
/// serial [`wa_fused`] path.
///
/// # Panics
///
/// Panics if the gradient slices are shorter than the movable-node count.
pub fn wa_fused_mt(
    device: &Device,
    model: &PlacementModel,
    gamma: f64,
    grad_x: &mut [f64],
    grad_y: &mut [f64],
    threads: usize,
) -> FusedWirelength {
    wa_fused_blocked(device, model, gamma, grad_x, grad_y, threads, NET_BLOCK)
}

/// [`wa_fused_mt`] with an explicit pool handle and reusable workspace — the
/// zero-allocation form used by the gradient engine's hot loop.
///
/// # Panics
///
/// Panics if the gradient slices are shorter than the movable-node count.
#[allow(clippy::too_many_arguments)]
pub fn wa_fused_mt_ws(
    device: &Device,
    model: &PlacementModel,
    gamma: f64,
    grad_x: &mut [f64],
    grad_y: &mut [f64],
    threads: usize,
    pool: &WorkerPool,
    ws: &mut WaWorkspace,
) -> FusedWirelength {
    wa_fused_blocked_ws(
        device, model, gamma, grad_x, grad_y, threads, NET_BLOCK, pool, ws,
    )
}

/// [`wa_fused_mt`] with an explicit block size — the deterministic blocked
/// core. Exposed so tests and benchmarks can force multi-block decompositions
/// on small designs; production callers use [`wa_fused_mt`].
///
/// # Panics
///
/// Panics if the gradient slices are shorter than the movable-node count or
/// `net_block` is zero.
pub fn wa_fused_blocked(
    device: &Device,
    model: &PlacementModel,
    gamma: f64,
    grad_x: &mut [f64],
    grad_y: &mut [f64],
    threads: usize,
    net_block: usize,
) -> FusedWirelength {
    let mut ws = WaWorkspace::new();
    wa_fused_blocked_ws(
        device,
        model,
        gamma,
        grad_x,
        grad_y,
        threads,
        net_block,
        xplace_parallel::global(),
        &mut ws,
    )
}

/// [`wa_fused_blocked`] with an explicit pool handle and a caller-owned
/// [`WaWorkspace`]: the per-block gradient accumulators live in the
/// workspace instead of being allocated per call. Slot `b` is zero-filled
/// before block `b`'s pass, so a reused workspace produces bit-identical
/// results to fresh buffers.
///
/// # Panics
///
/// Panics if the gradient slices are shorter than the movable-node count or
/// `net_block` is zero.
#[allow(clippy::too_many_arguments)]
pub fn wa_fused_blocked_ws(
    device: &Device,
    model: &PlacementModel,
    gamma: f64,
    grad_x: &mut [f64],
    grad_y: &mut [f64],
    threads: usize,
    net_block: usize,
    pool: &WorkerPool,
    ws: &mut WaWorkspace,
) -> FusedWirelength {
    assert!(net_block > 0, "net_block must be nonzero");
    assert!(grad_x.len() >= model.num_movable() && grad_y.len() >= model.num_movable());
    let num_nets = model.num_nets();
    let blocks = num_nets.div_ceil(net_block).max(1);
    let nm = model.num_movable();
    ws.prepare(blocks, nm);
    if blocks == 1 {
        let pins = &mut ws.slots[0].pins;
        return device.launch(fused_kernel(model), || {
            wa_pass::run(model, gamma, 0..num_nets, pins, Some((grad_x, grad_y)))
        });
    }
    device.launch(fused_kernel(model), || {
        let partials = pool.run_mut(&mut ws.slots[..blocks], threads.max(1), |b, slot| {
            let lo = b * net_block;
            let hi = (lo + net_block).min(num_nets);
            slot.grad_x.fill(0.0);
            slot.grad_y.fill(0.0);
            let grad = Some((&mut slot.grad_x[..], &mut slot.grad_y[..]));
            wa_pass::run(model, gamma, lo..hi, &mut slot.pins, grad)
        });
        // Merge in block order: fixed reduction order for any thread count.
        let mut total = FusedWirelength::default();
        for (out, slot) in partials.iter().zip(&ws.slots[..blocks]) {
            total.wa += out.wa;
            total.hpwl += out.hpwl;
            for i in 0..nm {
                grad_x[i] += slot.grad_x[i];
                grad_y[i] += slot.grad_y[i];
            }
        }
        total
    })
}

/// Forward-only WA wirelength (autograd mode): one launch, no gradient.
pub fn wa_forward(device: &Device, model: &PlacementModel, gamma: f64) -> f64 {
    let kernel = KernelInfo::new("wa_forward")
        .bytes(model.num_pins() as u64 * 40)
        .flops(model.num_pins() as u64 * 40)
        .out_of_place();
    device.launch(kernel, || wa_pass_all(model, gamma, None).wa)
}

/// Device-free WA gradient accumulation, for use *inside* an already
/// launched kernel (e.g. an autograd-tape backward replay, which performs
/// its own launch accounting).
///
/// # Panics
///
/// Panics if the gradient slices are shorter than the movable-node count.
pub fn wa_grad_into(model: &PlacementModel, gamma: f64, grad_x: &mut [f64], grad_y: &mut [f64]) {
    assert!(grad_x.len() >= model.num_movable() && grad_y.len() >= model.num_movable());
    wa_pass_all(model, gamma, Some((grad_x, grad_y)));
}

/// Backward WA kernel (autograd mode): recomputes the exponent sums and
/// accumulates the gradient, as the tape-driven backward op would.
///
/// # Panics
///
/// Panics if the gradient slices are shorter than the movable-node count.
pub fn wa_backward(
    device: &Device,
    model: &PlacementModel,
    gamma: f64,
    grad_x: &mut [f64],
    grad_y: &mut [f64],
) {
    assert!(grad_x.len() >= model.num_movable() && grad_y.len() >= model.num_movable());
    let kernel = KernelInfo::new("wa_backward")
        .bytes(model.num_pins() as u64 * 56)
        .flops(model.num_pins() as u64 * 60)
        .out_of_place();
    device.launch(kernel, || {
        wa_pass_all(model, gamma, Some((grad_x, grad_y)));
    });
}

/// The two-pass WA formula the cached kernel replaced: every exponential is
/// evaluated again in the gradient pass. Kept as the bit-exact oracle of
/// [`wa_net`].
#[cfg(test)]
mod two_pass {
    use super::{bounds_of_net, net_range, pin_pos, FusedWirelength};
    use crate::PlacementModel;

    #[allow(clippy::too_many_arguments)]
    fn wa_net_coord(
        s: usize,
        t: usize,
        gamma: f64,
        min_v: f64,
        max_v: f64,
        coord: impl Fn(usize) -> f64,
        mut grad: impl FnMut(usize, f64),
    ) -> f64 {
        let inv_gamma = 1.0 / gamma;
        let (mut s_pos, mut su_pos, mut s_neg, mut su_neg) = (0.0, 0.0, 0.0, 0.0);
        for p in s..t {
            let v = coord(p);
            let a_pos = ((v - max_v) * inv_gamma).exp();
            let a_neg = ((min_v - v) * inv_gamma).exp();
            s_pos += a_pos;
            su_pos += v * a_pos;
            s_neg += a_neg;
            su_neg += v * a_neg;
        }
        let wl_pos = su_pos / s_pos;
        let wl_neg = su_neg / s_neg;
        for p in s..t {
            let v = coord(p);
            let a_pos = ((v - max_v) * inv_gamma).exp();
            let a_neg = ((min_v - v) * inv_gamma).exp();
            let d_pos = a_pos / s_pos * (1.0 + (v - wl_pos) * inv_gamma);
            let d_neg = a_neg / s_neg * (1.0 - (v - wl_neg) * inv_gamma);
            grad(p, d_pos - d_neg);
        }
        wl_pos - wl_neg
    }

    /// The serial pass over nets `lo..hi` into the given accumulators.
    pub(super) fn wa_pass_range(
        model: &PlacementModel,
        gamma: f64,
        lo: usize,
        hi: usize,
        grad_x: &mut [f64],
        grad_y: &mut [f64],
    ) -> FusedWirelength {
        let nm = model.num_movable();
        let mut out = FusedWirelength::default();
        for e in lo..hi {
            let (s, t) = net_range(model, e);
            if t - s < 2 {
                continue;
            }
            let weight = model.net_weight[e];
            let (min_x, max_x, min_y, max_y) = bounds_of_net(model, s, t);
            out.hpwl += weight * ((max_x - min_x) + (max_y - min_y));
            let wx = wa_net_coord(
                s,
                t,
                gamma,
                min_x,
                max_x,
                |p| pin_pos(model, p).0,
                |p, d| {
                    let n = model.pin_node[p] as usize;
                    if n < nm {
                        grad_x[n] += weight * d;
                    }
                },
            );
            let wy = wa_net_coord(
                s,
                t,
                gamma,
                min_y,
                max_y,
                |p| pin_pos(model, p).1,
                |p, d| {
                    let n = model.pin_node[p] as usize;
                    if n < nm {
                        grad_y[n] += weight * d;
                    }
                },
            );
            out.wa += weight * (wx + wy);
        }
        out
    }

    /// The blocked kernel's old composition: each `net_block` range into
    /// zeroed accumulators, merged in block order.
    pub(super) fn wa_blocked(
        model: &PlacementModel,
        gamma: f64,
        net_block: usize,
        grad_x: &mut [f64],
        grad_y: &mut [f64],
    ) -> FusedWirelength {
        let (nets, nm) = (model.num_nets(), model.num_movable());
        if nets <= net_block {
            return wa_pass_range(model, gamma, 0, nets, grad_x, grad_y);
        }
        let mut total = FusedWirelength::default();
        for lo in (0..nets).step_by(net_block) {
            let (mut gx, mut gy) = (vec![0.0; nm], vec![0.0; nm]);
            let out = wa_pass_range(
                model,
                gamma,
                lo,
                (lo + net_block).min(nets),
                &mut gx,
                &mut gy,
            );
            total.wa += out.wa;
            total.hpwl += out.hpwl;
            for i in 0..nm {
                grad_x[i] += gx[i];
                grad_y[i] += gy[i];
            }
        }
        total
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

    /// A scattered model and a WA gamma from tiny to large. Half the cases
    /// re-cut the pins into degree-2 nets (plus a trailing degree-1 net
    /// when the pin count is odd); every third node sits on one shared
    /// point with zero pin offsets, so many nets have coincident pins. In
    /// a third of the cases the other nodes snap to a 3 x 3 lattice with
    /// zero pin offsets, so most nets have several pins tied at an
    /// extreme (and the exponential shortcuts fire on every tie).
    fn oracle_case() -> impl Strategy<Value = (PlacementModel, f64)> {
        prop::from_fn(|rng: &mut Rng| {
            let cells = rng.gen_range(20usize..120);
            let seed = rng.gen_range(0u64..10_000);
            let spec = SynthesisSpec::new("oracle", cells, cells + 15).with_seed(seed);
            let mut m = PlacementModel::from_design(&synthesize(&spec).unwrap()).unwrap();
            let r = m.region();
            let c = r.center();
            let lattice = rng.gen_range(0u32..3) == 0;
            let coord = |rng: &mut Rng| {
                if lattice {
                    [0.1, 0.5, 0.9][rng.gen_range(0usize..3)]
                } else {
                    rng.gen_range(0.0..1.0)
                }
            };
            for i in 0..m.num_nodes() {
                if i % 3 == 0 {
                    (m.x[i], m.y[i]) = (c.x, c.y);
                } else {
                    m.x[i] = r.lx + coord(rng) * r.width();
                    m.y[i] = r.ly + coord(rng) * r.height();
                }
            }
            for p in 0..m.num_pins() {
                if lattice || m.pin_node[p].is_multiple_of(3) {
                    (m.pin_dx[p], m.pin_dy[p]) = (0.0, 0.0);
                }
            }
            if rng.gen_range(0u32..2) == 0 {
                let pins = m.num_pins() as u32;
                m.net_start = (0..pins).step_by(2).chain([pins]).collect();
                m.net_weight = (1..m.net_start.len())
                    .map(|_| rng.gen_range(0.5..3.0))
                    .collect();
            }
            let gamma = [1e-3, 1e-2, 0.5, 4.0, 80.0][rng.gen_range(0usize..5)];
            (m, gamma)
        })
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    props! {
        config = Config::with_cases(40);

        /// The cached kernel equals the two-pass formula bit for bit,
        /// serial and blocked, for the sums and every gradient entry.
        fn cached_wa_matches_two_pass_formula_bitwise(case in oracle_case()) {
            let (model, gamma) = case;
            let device = Device::new(DeviceConfig::instant());
            let nm = model.num_movable();
            for net_block in [usize::MAX, 7] {
                let (mut gx0, mut gy0) = (vec![0.0; nm], vec![0.0; nm]);
                let want = two_pass::wa_blocked(&model, gamma, net_block, &mut gx0, &mut gy0);
                let (mut gx1, mut gy1) = (vec![0.0; nm], vec![0.0; nm]);
                let got = if net_block == usize::MAX {
                    wa_fused(&device, &model, gamma, &mut gx1, &mut gy1)
                } else {
                    wa_fused_blocked(&device, &model, gamma, &mut gx1, &mut gy1, 2, net_block)
                };
                prop_assert!(got.wa.to_bits() == want.wa.to_bits(),
                    "wa {} vs {} (gamma {gamma}, block {net_block})", got.wa, want.wa);
                prop_assert!(got.hpwl.to_bits() == want.hpwl.to_bits(),
                    "hpwl {} vs {}", got.hpwl, want.hpwl);
                prop_assert!(bits(&gx1) == bits(&gx0), "grad_x differs (gamma {gamma})");
                prop_assert!(bits(&gy1) == bits(&gy0), "grad_y differs (gamma {gamma})");
            }
        }
    }

    /// [`wa_pass`] over every net in its portable build, or in its
    /// AVX2+FMA build when `avx2`; `None` when the CPU cannot run that.
    fn pass_in(
        avx2: bool,
        model: &PlacementModel,
        gamma: f64,
        grad: Option<(&mut [f64], &mut [f64])>,
    ) -> Option<FusedWirelength> {
        let (nets, cache) = (0..model.num_nets(), &mut PinCache::default());
        if !avx2 {
            return Some(wa_pass::portable(model, gamma, nets, cache, grad));
        }
        #[cfg(target_arch = "x86_64")]
        if xplace_parallel::simd::avx2() {
            // SAFETY: the CPU supports AVX2 and FMA.
            return Some(unsafe { wa_pass::avx2(model, gamma, nets, cache, grad) });
        }
        None
    }

    props! {
        config = Config::with_cases(40);

        /// The portable build (libm `exp`) and the AVX2+FMA build (the
        /// inlined port) agree bit for bit on the sums and every gradient
        /// entry, with ties at the extremes and degree-1 nets.
        fn wa_pass_agrees_across_builds(case in oracle_case()) {
            if !xplace_parallel::simd::avx2_or_note("wa_pass_agrees_across_builds") {
                return Ok(());
            }
            let (model, gamma) = case;
            let nm = model.num_movable();
            let (mut gx0, mut gy0) = (vec![0.0; nm], vec![0.0; nm]);
            let want = pass_in(false, &model, gamma, Some((&mut gx0, &mut gy0))).unwrap();
            let (mut gx1, mut gy1) = (vec![0.0; nm], vec![0.0; nm]);
            let got = pass_in(true, &model, gamma, Some((&mut gx1, &mut gy1))).unwrap();
            prop_assert!(got.wa.to_bits() == want.wa.to_bits(),
                "wa {} vs {} (gamma {gamma})", got.wa, want.wa);
            prop_assert!(got.hpwl.to_bits() == want.hpwl.to_bits(),
                "hpwl {} vs {}", got.hpwl, want.hpwl);
            prop_assert!(bits(&gx1) == bits(&gx0), "grad_x differs (gamma {gamma})");
            prop_assert!(bits(&gy1) == bits(&gy0), "grad_y differs (gamma {gamma})");
        }
    }

    /// Each net with two or more pins saves at least one exponential per
    /// axis and direction (its extreme pin), so a pass evaluates at most
    /// `4 * pins - 4 * nets` of them instead of `4 * pins`; a degree-2 net
    /// evaluates one per axis. Both builds evaluate the same ones.
    #[test]
    fn wa_pass_skips_the_exponentials_of_extreme_pins() {
        let (model, _) = setup(2000);
        let avx2 =
            xplace_parallel::simd::avx2_or_note("wa_pass_skips_the_exponentials_of_extreme_pins");
        let exps = |model: &PlacementModel| {
            EXP_CALLS.with(|c| c.set(0));
            pass_in(false, model, 4.0, None);
            let portable = EXP_CALLS.with(|c| c.replace(0));
            if avx2 {
                pass_in(true, model, 4.0, None);
                assert_eq!(EXP_CALLS.with(|c| c.get()), portable, "AVX2 build");
            }
            portable
        };
        let (pins, nets) = (0..model.num_nets())
            .map(|e| net_range(&model, e))
            .filter(|(s, t)| t - s >= 2)
            .fold((0, 0), |(p, n), (s, t)| (p + t - s, n + 1));
        let got = exps(&model);
        assert!(
            got <= 4 * pins - 4 * nets,
            "{got} exponentials for {pins} pins on {nets} nets"
        );
        let mut two_pin = model.clone();
        let all = two_pin.num_pins() as u32 & !1;
        two_pin.net_start = (0..=all).step_by(2).collect();
        two_pin.net_weight = vec![1.0; two_pin.net_start.len() - 1];
        two_pin.pin_node.truncate(all as usize);
        assert_eq!(exps(&two_pin), 2 * two_pin.num_nets());
        // `xplace synth design 10000 --seed 42` at its initial positions:
        // 150,628 exponentials without the skips.
        let spec = SynthesisSpec::new("design", 10_000, 10_500).with_seed(42);
        let model = PlacementModel::from_design(&synthesize(&spec).unwrap()).unwrap();
        assert_eq!(exps(&model), 100_120);
    }

    fn setup(cells: usize) -> (PlacementModel, Device) {
        let design =
            synthesize(&SynthesisSpec::new("wl", cells, cells + 20).with_seed(11)).unwrap();
        let mut model = PlacementModel::from_design(&design).unwrap();
        // Spread the cells so nets have nonzero extent.
        let r = model.region();
        for i in 0..model.num_movable() {
            model.x[i] = r.lx + (i as f64 * 0.618).fract() * r.width();
            model.y[i] = r.ly + (i as f64 * 0.414).fract() * r.height();
        }
        (model, Device::new(DeviceConfig::instant()))
    }

    #[test]
    fn hpwl_matches_design_convention() {
        let design = synthesize(&SynthesisSpec::new("h", 200, 220).with_seed(3)).unwrap();
        let model = PlacementModel::from_design(&design).unwrap();
        let device = Device::new(DeviceConfig::instant());
        let fast = hpwl(&device, &model);
        assert!((fast - design.total_hpwl()).abs() < 1e-6 * fast.max(1.0));
    }

    #[test]
    fn wa_lower_bounds_hpwl_and_converges_as_gamma_shrinks() {
        let (model, device) = setup(300);
        let exact = hpwl(&device, &model);
        let mut prev_err = f64::INFINITY;
        for gamma in [50.0, 10.0, 1.0, 0.1] {
            let wa = wa_forward(&device, &model, gamma);
            assert!(wa <= exact + 1e-6, "WA {wa} should not exceed HPWL {exact}");
            let err = exact - wa;
            assert!(err <= prev_err + 1e-9, "error should shrink with gamma");
            prev_err = err;
        }
        assert!(
            prev_err < exact * 0.01,
            "gamma=0.1 should be within 1% of HPWL"
        );
    }

    #[test]
    fn fused_kernel_agrees_with_split_kernels() {
        let (model, device) = setup(250);
        let gamma = 5.0;
        let nm = model.num_movable();
        let (mut gx1, mut gy1) = (vec![0.0; nm], vec![0.0; nm]);
        let (mut gx2, mut gy2) = (vec![0.0; nm], vec![0.0; nm]);
        let fused = wa_fused(&device, &model, gamma, &mut gx1, &mut gy1);
        let wa_split = wa_with_grad(&device, &model, gamma, &mut gx2, &mut gy2);
        let hpwl_split = hpwl(&device, &model);
        assert!((fused.wa - wa_split).abs() < 1e-9 * fused.wa.abs().max(1.0));
        assert!((fused.hpwl - hpwl_split).abs() < 1e-9 * fused.hpwl.max(1.0));
        for i in 0..nm {
            assert!((gx1[i] - gx2[i]).abs() < 1e-12);
            assert!((gy1[i] - gy2[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let (mut model, device) = setup(60);
        let gamma = 8.0;
        let nm = model.num_movable();
        let (mut gx, mut gy) = (vec![0.0; nm], vec![0.0; nm]);
        wa_fused(&device, &model, gamma, &mut gx, &mut gy);
        let eps = 1e-5;
        for &i in &[0usize, 7, 23, nm - 1] {
            let x0 = model.x[i];
            model.x[i] = x0 + eps;
            let plus = wa_forward(&device, &model, gamma);
            model.x[i] = x0 - eps;
            let minus = wa_forward(&device, &model, gamma);
            model.x[i] = x0;
            let fd = (plus - minus) / (2.0 * eps);
            assert!(
                (gx[i] - fd).abs() < 1e-5 * fd.abs().max(1.0),
                "node {i}: analytic {} vs fd {fd}",
                gx[i]
            );
        }
    }

    #[test]
    fn backward_accumulates_same_gradient_as_merged() {
        let (model, device) = setup(150);
        let nm = model.num_movable();
        let (mut gx1, mut gy1) = (vec![0.0; nm], vec![0.0; nm]);
        let (mut gx2, mut gy2) = (vec![0.0; nm], vec![0.0; nm]);
        wa_with_grad(&device, &model, 4.0, &mut gx1, &mut gy1);
        wa_backward(&device, &model, 4.0, &mut gx2, &mut gy2);
        assert_eq!(gx1, gx2);
        assert_eq!(gy1, gy2);
    }

    #[test]
    fn coincident_pins_produce_finite_zero_gradient() {
        let (mut model, device) = setup(50);
        let c = model.region().center();
        for i in 0..model.num_nodes() {
            model.x[i] = c.x;
            model.y[i] = c.y;
        }
        // Zero the pin offsets so every pin is exactly coincident.
        for d in model.pin_dx.iter_mut().chain(model.pin_dy.iter_mut()) {
            *d = 0.0;
        }
        let nm = model.num_movable();
        let (mut gx, mut gy) = (vec![0.0; nm], vec![0.0; nm]);
        let out = wa_fused(&device, &model, 1.0, &mut gx, &mut gy);
        assert!(out.wa.abs() < 1e-9);
        assert!(out.hpwl.abs() < 1e-9);
        for i in 0..nm {
            assert!(gx[i].is_finite() && gx[i].abs() < 1e-9);
            assert!(gy[i].is_finite() && gy[i].abs() < 1e-9);
        }
    }

    #[test]
    fn tiny_gamma_does_not_overflow() {
        let (model, device) = setup(100);
        let nm = model.num_movable();
        let (mut gx, mut gy) = (vec![0.0; nm], vec![0.0; nm]);
        let out = wa_fused(&device, &model, 1e-3, &mut gx, &mut gy);
        assert!(out.wa.is_finite());
        assert!(gx.iter().all(|g| g.is_finite()));
        assert!(gy.iter().all(|g| g.is_finite()));
    }

    #[test]
    fn launch_counts_match_operator_granularity() {
        let (model, device) = setup(80);
        let nm = model.num_movable();
        let (mut gx, mut gy) = (vec![0.0; nm], vec![0.0; nm]);
        let before = device.profile();
        wa_fused(&device, &model, 2.0, &mut gx, &mut gy);
        assert_eq!((device.profile() - before).launches, 1);
        let before = device.profile();
        wa_with_grad(&device, &model, 2.0, &mut gx, &mut gy);
        hpwl(&device, &model);
        assert_eq!((device.profile() - before).launches, 2);
        let before = device.profile();
        wa_forward(&device, &model, 2.0);
        wa_backward(&device, &model, 2.0, &mut gx, &mut gy);
        hpwl(&device, &model);
        assert_eq!((device.profile() - before).launches, 3);
    }

    #[test]
    fn net_weights_scale_objective_and_gradient() {
        let (model, device) = setup(120);
        let mut heavy = model.clone();
        for w in heavy.net_weight.iter_mut() {
            *w = 2.5;
        }
        let nm = model.num_movable();
        let (mut gx1, mut gy1) = (vec![0.0; nm], vec![0.0; nm]);
        let (mut gx2, mut gy2) = (vec![0.0; nm], vec![0.0; nm]);
        let base = wa_fused(&device, &model, 4.0, &mut gx1, &mut gy1);
        let scaled = wa_fused(&device, &heavy, 4.0, &mut gx2, &mut gy2);
        assert!((scaled.wa - 2.5 * base.wa).abs() < 1e-9 * base.wa.abs().max(1.0));
        assert!((scaled.hpwl - 2.5 * base.hpwl).abs() < 1e-9 * base.hpwl.max(1.0));
        for i in 0..nm {
            assert!((gx2[i] - 2.5 * gx1[i]).abs() < 1e-10);
        }
    }

    #[test]
    fn moving_a_cell_toward_its_net_reduces_wa() {
        let (mut model, device) = setup(120);
        let nm = model.num_movable();
        let (mut gx, mut gy) = (vec![0.0; nm], vec![0.0; nm]);
        let before = wa_forward(&device, &model, 3.0);
        wa_fused(&device, &model, 3.0, &mut gx, &mut gy);
        // Take a small step along the negative gradient.
        for i in 0..nm {
            model.x[i] -= 0.05 * gx[i];
            model.y[i] -= 0.05 * gy[i];
        }
        let after = wa_forward(&device, &model, 3.0);
        assert!(
            after < before,
            "gradient step should reduce WA: {after} vs {before}"
        );
    }
}
