//! Bernstein-polynomial over-approximation of neural controllers.
//!
//! Following `ReachNN` \[21\] and the paper's Section III-C, a network
//! `κ: X → R` is replaced by `B_d(x) ± ε` where `B_d` is the degree-`d`
//! tensor-product Bernstein approximant and `ε` a *rigorous* error bound.
//! The classical modulus-of-continuity estimate gives, per dimension of
//! width `wᵢ` and network Lipschitz constant `L` (2-norm, which dominates
//! every coordinate direction):
//!
//! ```text
//! ‖B_d κ − κ‖_∞  ≤  (3/2) · L · Σᵢ wᵢ / √d
//! ```
//!
//! so the error shrinks with the partition width — and *grows with `L`*,
//! which is exactly the mechanism that makes low-Lipschitz students cheap
//! to verify (Table I, Figs. 3–4). When a piece's bound exceeds the
//! tolerance it is bisected; the total piece budget is capped and a
//! high-`L` network exhausts it ([`VerifyError::ResourceExhausted`]).

use crate::enclosure::ControlEnclosure;
use crate::error::VerifyError;
use cocktail_math::{BoxRegion, Interval, Matrix};
use cocktail_nn::Mlp;
use serde::{Deserialize, Serialize};
use std::ops::{Add, Mul};

/// Binomial coefficient `C(n, k)` as `f64` (degrees here are ≤ ~10).
fn binomial(n: usize, k: usize) -> f64 {
    let k = k.min(n - k);
    let mut num = 1.0;
    let mut den = 1.0;
    for i in 0..k {
        num *= (n - i) as f64;
        den *= (i + 1) as f64;
    }
    num / den
}

/// Per-call scratch up to this many entries lives on the stack, so the
/// per-point queries ([`BernsteinApprox::eval`], the basis enclosure) do
/// not allocate for any practical `dim · (degree + 1)`.
const STACK_SCRATCH: usize = 64;

/// Runs `f` on a `len`-long scratch slice filled with `fill`: a stack
/// buffer when it fits in [`STACK_SCRATCH`], a heap one otherwise.
fn with_scratch<T: Copy, R>(len: usize, fill: T, f: impl FnOnce(&mut [T]) -> R) -> R {
    if len <= STACK_SCRATCH {
        let mut buf = [fill; STACK_SCRATCH];
        f(&mut buf[..len])
    } else {
        f(&mut vec![fill; len])
    }
}

/// Advances a mixed-radix counter (digit 0 fastest, every digit in
/// `0..radix`), wrapping to all zeros after the last index.
fn advance(idx: &mut [usize], radix: usize) {
    for item in idx.iter_mut() {
        *item += 1;
        if *item < radix {
            return;
        }
        *item = 0;
    }
}

/// The unit coordinate of `v` in `iv`, as [`BoxRegion::to_unit`] computes
/// it (a degenerate interval maps to `0`).
fn unit(iv: &Interval, v: f64) -> f64 {
    if iv.width() > 0.0 {
        (v - iv.lo()) / iv.width()
    } else {
        0.0
    }
}

/// `Σ_k c_k · Π_i basis[i·pts + k_i]` over the coefficient tensor
/// (dimension 0 fastest): each term multiplies in dimension order and the
/// terms are summed in coefficient order, for points (`f64`) and boxes
/// ([`Interval`]) alike.
fn tensor_sum<T>(coeffs: &[f64], basis: &[T], pts: usize) -> T
where
    T: Copy + From<f64> + Add<Output = T> + Mul<Output = T>,
{
    with_scratch(basis.len() / pts, 0usize, |idx| {
        let mut acc = T::from(0.0);
        for &c in coeffs {
            let mut w = T::from(c);
            for (i, &k) in idx.iter().enumerate() {
                w = w * basis[i * pts + k];
            }
            acc = acc + w;
            advance(idx, pts);
        }
        acc
    })
}

/// The uniform `per_dim^n` grid over `domain` as a `per_dim^n × n` point
/// matrix, lexicographic in the per-dimension index (dimension 0 fastest).
/// Row `k` equals `domain.lerp(k / (per_dim − 1))` bit for bit, so two
/// grids of the same resolution over the same box hold identical points.
fn sample_grid(domain: &BoxRegion, per_dim: usize) -> Matrix {
    let n = domain.dim();
    let count = per_dim.pow(n as u32);
    let steps = (per_dim - 1) as f64;
    let mut points = Vec::with_capacity(count * n);
    let mut idx = vec![0usize; n];
    for _ in 0..count {
        for (iv, &k) in domain.intervals().iter().zip(&idx) {
            points.push(iv.lo() + k as f64 / steps * iv.width());
        }
        advance(&mut idx, per_dim);
    }
    Matrix::from_vec(count, n, points)
}

/// A single-output Bernstein approximant over a box.
#[derive(Debug, Clone, PartialEq)]
pub struct BernsteinApprox {
    domain: BoxRegion,
    degree: usize,
    /// Coefficients on the `(degree+1)^n` tensor grid, lexicographic in the
    /// per-dimension index (dimension 0 fastest).
    coeffs: Vec<f64>,
    /// [`bernstein_lipschitz`] of the coefficients, computed once.
    lipschitz: f64,
}

impl BernsteinApprox {
    /// Builds the degree-`degree` approximant of `f` over `domain` by
    /// sampling `f` on the uniform `(degree+1)^n` grid.
    ///
    /// # Panics
    ///
    /// Panics if `degree == 0`.
    pub fn build(f: &dyn Fn(&[f64]) -> f64, domain: &BoxRegion, degree: usize) -> Self {
        assert!(degree > 0, "degree must be positive");
        let grid = sample_grid(domain, degree + 1);
        let coeffs = (0..grid.rows()).map(|r| f(grid.row(r))).collect();
        Self::from_coeffs(domain.clone(), degree, coeffs)
    }

    /// The approximant with the given grid coefficients (the layout of
    /// [`sample_grid`] at `degree + 1` points per dimension).
    fn from_coeffs(domain: BoxRegion, degree: usize, coeffs: Vec<f64>) -> Self {
        debug_assert_eq!(coeffs.len(), (degree + 1).pow(domain.dim() as u32));
        let lipschitz = bernstein_lipschitz(&domain, degree, &coeffs);
        Self {
            domain,
            degree,
            coeffs,
            lipschitz,
        }
    }

    /// The approximation domain.
    pub fn domain(&self) -> &BoxRegion {
        &self.domain
    }

    /// The polynomial degree per dimension.
    pub fn degree(&self) -> usize {
        self.degree
    }

    /// Evaluates the approximant at a point of the domain. Allocation-free
    /// for `dim · (degree + 1) <= 64`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != domain.dim()`.
    pub fn eval(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.domain.dim(), "point dimension mismatch");
        let n = x.len();
        let d = self.degree;
        let pts = d + 1;
        with_scratch(n * pts, 0.0, |basis| {
            // per-dimension basis values B_{k,d}(tᵢ), row i of `basis`
            for (i, (iv, &xi)) in self.domain.intervals().iter().zip(x).enumerate() {
                let ti = unit(iv, xi);
                for k in 0..=d {
                    basis[i * pts + k] =
                        binomial(d, k) * ti.powi(k as i32) * (1.0 - ti).powi((d - k) as i32);
                }
            }
            tensor_sum(&self.coeffs, basis, pts)
        })
    }

    /// The convex-hull enclosure over the *whole* domain: a Bernstein-form
    /// polynomial lies within the range of its coefficients.
    pub fn coefficient_range(&self) -> Interval {
        let lo = self.coeffs.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = self
            .coeffs
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max);
        Interval::new(lo, hi)
    }

    /// An upper bound on this approximant's own 2-norm Lipschitz constant,
    /// from the first differences of the coefficient tensor.
    pub fn lipschitz_bound(&self) -> f64 {
        self.lipschitz
    }

    /// Sound enclosure of the approximant over a sub-box `q ⊆ domain`.
    ///
    /// Three sound bounds are intersected: the convex-hull property of the
    /// Bernstein form (the basis is a partition of unity, so the value lies
    /// in the coefficient range over *any* sub-box), interval evaluation
    /// of the basis products, and the mean-value bound
    /// `B(mid(q)) ± L_B · radius₂(q)` (the tightest for small sub-boxes).
    ///
    /// # Panics
    ///
    /// Panics if `q.dim() != domain.dim()`.
    pub fn enclose(&self, q: &BoxRegion) -> Interval {
        let mut bound = self.coefficient_range();
        if let Some(tighter) = bound.intersect(&self.enclose_by_basis(q)) {
            bound = tighter;
        }
        let radius = q
            .intervals()
            .iter()
            .map(|iv| iv.radius() * iv.radius())
            .sum::<f64>()
            .sqrt();
        let centre = with_scratch(q.dim(), 0.0, |c| {
            for (ci, iv) in c.iter_mut().zip(q.intervals()) {
                *ci = iv.mid();
            }
            self.eval(c)
        });
        let mean_value = Interval::symmetric(self.lipschitz * radius) + Interval::point(centre);
        bound.intersect(&mean_value).unwrap_or(bound)
    }

    fn enclose_by_basis(&self, q: &BoxRegion) -> Interval {
        assert_eq!(q.dim(), self.domain.dim(), "sub-box dimension mismatch");
        let n = q.dim();
        let d = self.degree;
        let pts = d + 1;
        let one = Interval::point(1.0);
        with_scratch(n * pts, one, |basis| {
            for (i, (dom, qi)) in self
                .domain
                .intervals()
                .iter()
                .zip(q.intervals())
                .enumerate()
            {
                // unit coordinates of the sub-box, clamped to [0,1]
                let lo = unit(dom, qi.lo()).clamp(0.0, 1.0);
                let hi = unit(dom, qi.hi()).clamp(0.0, 1.0);
                let ti = Interval::new(lo.min(hi), hi.max(lo));
                for k in 0..=d {
                    basis[i * pts + k] = Interval::point(binomial(d, k))
                        * ti.powi(k as u32)
                        * (one - ti).powi((d - k) as u32);
                }
            }
            tensor_sum(&self.coeffs, basis, pts)
        })
    }
}

/// Classical rigorous Bernstein error bound for a Lipschitz-`l` function
/// over a box: `(3/2)·l·Σᵢwᵢ/√d`. Used as a cheap acceptance test; the
/// certificate falls back to the (still sound, much tighter)
/// sampled-plus-Lipschitz-margin bound when this is too conservative.
pub fn rigorous_error_bound(lipschitz: f64, domain: &BoxRegion, degree: usize) -> f64 {
    let width_sum: f64 = domain.intervals().iter().map(Interval::width).sum();
    1.5 * lipschitz * width_sum / (degree as f64).sqrt()
}

/// An upper bound on the 2-norm Lipschitz constant of a Bernstein
/// approximant, from the first differences of its coefficient tensor:
/// `|∂B/∂tᵢ| ≤ d·max_k |c_{k+eᵢ} − c_k|` in unit coordinates.
fn bernstein_lipschitz(domain: &BoxRegion, d: usize, coeffs: &[f64]) -> f64 {
    let pts = d + 1;
    let mut acc = 0.0;
    for i in 0..domain.dim() {
        let stride: usize = pts.pow(i as u32);
        let mut max_diff: f64 = 0.0;
        for (idx, &c) in coeffs.iter().enumerate() {
            // index along dimension i
            let k = (idx / stride) % pts;
            if k + 1 < pts {
                max_diff = max_diff.max((coeffs[idx + stride] - c).abs());
            }
        }
        let w = domain.interval(i).width();
        if w > 0.0 {
            let l_i = d as f64 * max_diff / w;
            acc += l_i * l_i;
        }
    }
    acc.sqrt()
}

/// Sound error bound for `|f − B|` over the piece from the uniform
/// `m^n` sample grid `samples` (a [`sample_grid`] of `poly`'s domain) with
/// `f` known there (`truth[r] = f(samples.row(r))`), plus the Lipschitz
/// covering margin: if the grid has covering radius `r` (2-norm) then
/// `‖f − B‖_∞ ≤ max_grid |f − B| + (L_f + L_B)·r`.
fn sampled_error_bound(
    poly: &BernsteinApprox,
    samples: &Matrix,
    truth: &[f64],
    f_lipschitz: f64,
    m: usize,
) -> f64 {
    let worst = truth.iter().enumerate().fold(0.0_f64, |worst, (r, &f)| {
        worst.max((f - poly.eval(samples.row(r))).abs())
    });
    let r = 0.5
        * poly
            .domain
            .intervals()
            .iter()
            .map(|iv| {
                let h = iv.width() / (m - 1) as f64;
                h * h
            })
            .sum::<f64>()
            .sqrt();
    worst + (f_lipschitz + poly.lipschitz) * r
}

/// Configuration for [`BernsteinCertificate::build`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CertificateConfig {
    /// Bernstein degree per dimension.
    pub degree: usize,
    /// Target approximation error per piece.
    pub tolerance: f64,
    /// Maximum number of partition pieces before giving up — the analogue
    /// of the paper's memory blow-up for high-Lipschitz students.
    pub max_pieces: usize,
    /// Sample-grid resolution per dimension for the sound
    /// sampled-plus-Lipschitz-margin error bound of each piece.
    pub error_samples_per_dim: usize,
}

impl Default for CertificateConfig {
    fn default() -> Self {
        Self {
            degree: 4,
            tolerance: 0.5,
            max_pieces: 2048,
            error_samples_per_dim: 5,
        }
    }
}

/// Partition-refinement statistics of a certificate build: how many
/// bisections were performed and how deep the refinement went. Shipped in
/// the safety certificate so admission can compare them exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RefineStats {
    /// Number of bisections performed (cells refined).
    pub splits: usize,
    /// Number of refinement levels (0 when the root piece met tolerance).
    pub depth: usize,
}

/// A piecewise Bernstein over-approximation of a (scaled) MLP controller:
/// on every piece `P`, `κ(x) ∈ B_P(x) ± ε_P` for all `x ∈ P`.
#[derive(Debug, Clone, PartialEq)]
pub struct BernsteinCertificate {
    pieces: Vec<CertPiece>,
    domain: BoxRegion,
    output_dim: usize,
    lipschitz: f64,
}

#[derive(Debug, Clone, PartialEq)]
struct CertPiece {
    region: BoxRegion,
    polys: Vec<BernsteinApprox>,
    epsilon: f64,
}

/// One region's per-output approximants and its sound error bound `ε`.
///
/// The network runs once, batched, on the `(degree+1)^n` coefficient grid
/// (each row of [`Mlp::forward_batch`] is bit-identical to
/// [`Mlp::forward`]). The sampled error bound needs `f` on the
/// `error_samples_per_dim^n` grid: when that is the coefficient grid (the
/// same resolution gives the same points bit for bit) the coefficients
/// *are* those values, otherwise one more batched forward supplies them.
fn evaluate_region(
    net: &Mlp,
    scale: &[f64],
    region: &BoxRegion,
    config: &CertificateConfig,
    lipschitz: f64,
) -> (Vec<BernsteinApprox>, f64) {
    let grid = sample_grid(region, config.degree + 1);
    let values = net.forward_batch(&grid);
    let scaled_column = |values: &Matrix, o: usize| -> Vec<f64> {
        (0..values.rows())
            .map(|r| values[(r, o)] * scale[o])
            .collect()
    };
    let polys: Vec<BernsteinApprox> = (0..scale.len())
        .map(|o| {
            BernsteinApprox::from_coeffs(region.clone(), config.degree, scaled_column(&values, o))
        })
        .collect();
    let m = config.error_samples_per_dim.max(2);
    let resampled = (m != config.degree + 1).then(|| {
        let samples = sample_grid(region, m);
        let values = net.forward_batch(&samples);
        (samples, values)
    });
    let rigorous = rigorous_error_bound(lipschitz, region, config.degree);
    let mut epsilon: f64 = 0.0;
    for (o, poly) in polys.iter().enumerate() {
        let sampled = match &resampled {
            None => sampled_error_bound(poly, &grid, &poly.coeffs, lipschitz, m),
            Some((samples, values)) => {
                sampled_error_bound(poly, samples, &scaled_column(values, o), lipschitz, m)
            }
        };
        epsilon = epsilon.max(sampled.min(rigorous));
    }
    (polys, epsilon)
}

impl BernsteinCertificate {
    /// Builds a certificate for the scaled network `x ↦ scale ⊙ net(x)`
    /// over `domain`, refining the partition until every piece meets the
    /// tolerance.
    ///
    /// # Errors
    ///
    /// Returns [`VerifyError::ResourceExhausted`] when more than
    /// `config.max_pieces` pieces would be needed — high-Lipschitz networks
    /// hit this budget, which is the paper's `κ_D` failure mode.
    ///
    /// # Panics
    ///
    /// Panics if `config.degree == 0`, `scale.len() != net.output_dim()` or
    /// `domain.dim() != net.input_dim()`.
    pub fn build(
        net: &Mlp,
        scale: &[f64],
        domain: &BoxRegion,
        config: &CertificateConfig,
    ) -> Result<Self, VerifyError> {
        Self::build_with_workers(
            net,
            scale,
            domain,
            config,
            cocktail_math::parallel::default_workers(),
        )
        .map(|(cert, _)| cert)
    }

    /// [`Self::build`] with an explicit worker count, returning the
    /// refinement statistics alongside the certificate.
    ///
    /// Refinement is level-synchronous: every region of the current frontier
    /// is evaluated in parallel, then accepted or bisected in index order.
    /// Each region's approximants and error bound depend only on that
    /// region, so the resulting certificate is bit-identical for every
    /// `workers >= 1`.
    ///
    /// # Errors
    ///
    /// See [`Self::build`].
    ///
    /// # Panics
    ///
    /// See [`Self::build`].
    pub fn build_with_workers(
        net: &Mlp,
        scale: &[f64],
        domain: &BoxRegion,
        config: &CertificateConfig,
        workers: usize,
    ) -> Result<(Self, RefineStats), VerifyError> {
        assert!(config.degree > 0, "degree must be positive");
        assert_eq!(scale.len(), net.output_dim(), "scale length mismatch");
        assert_eq!(domain.dim(), net.input_dim(), "domain dimension mismatch");
        let max_scale = scale.iter().fold(0.0_f64, |m, &s| m.max(s.abs()));
        let lipschitz = max_scale * net.lipschitz_constant();

        let mut frontier = vec![domain.clone()];
        let mut pieces = Vec::new();
        let mut stats = RefineStats::default();
        while !frontier.is_empty() {
            if pieces.len() + frontier.len() > config.max_pieces {
                return Err(VerifyError::ResourceExhausted {
                    resource: "bernstein partitions",
                    budget: config.max_pieces,
                });
            }
            let evaluated: Vec<(Vec<BernsteinApprox>, f64)> =
                cocktail_math::parallel::map_indexed_with_workers(
                    &frontier,
                    workers,
                    |_, region| evaluate_region(net, scale, region, config, lipschitz),
                );
            let mut next = Vec::new();
            for (region, (polys, epsilon)) in frontier.into_iter().zip(evaluated) {
                if epsilon > config.tolerance && region.max_width() > 1e-6 {
                    let (a, b) = region.bisect();
                    next.push(a);
                    next.push(b);
                    stats.splits += 1;
                } else {
                    pieces.push(CertPiece {
                        region,
                        polys,
                        epsilon,
                    });
                }
            }
            frontier = next;
            if !frontier.is_empty() {
                stats.depth += 1;
            }
        }
        Ok((
            Self {
                pieces,
                domain: domain.clone(),
                output_dim: scale.len(),
                lipschitz,
            },
            stats,
        ))
    }

    /// Number of partition pieces — the paper's verification-cost driver.
    pub fn piece_count(&self) -> usize {
        self.pieces.len()
    }

    /// The largest per-piece error bound `ε = max(ε̂_p)`.
    pub fn epsilon(&self) -> f64 {
        self.pieces.iter().map(|p| p.epsilon).fold(0.0, f64::max)
    }

    /// The Lipschitz bound of the certified network.
    pub fn lipschitz(&self) -> f64 {
        self.lipschitz
    }

    /// The certified domain.
    pub fn domain(&self) -> &BoxRegion {
        &self.domain
    }

    /// The pieces intersecting `q` (used by the analyses).
    fn pieces_covering<'a>(&'a self, q: &'a BoxRegion) -> impl Iterator<Item = &'a CertPiece> {
        // the closed-interval overlap rule of `BoxRegion::intersect`,
        // without building the intersection box
        self.pieces.iter().filter(move |p| {
            p.region
                .intervals()
                .iter()
                .zip(q.intervals())
                .all(|(a, b)| a.lo().max(b.lo()) <= a.hi().min(b.hi()))
        })
    }

    /// Evaluates the certified approximation at a point (mid-value, no
    /// error term) — diagnostics only.
    ///
    /// # Panics
    ///
    /// Panics if `x` lies outside the certified domain.
    #[allow(
        clippy::expect_used,
        reason = "the out-of-domain panic is documented above"
    )]
    pub fn eval(&self, x: &[f64]) -> Vec<f64> {
        let piece = self
            .pieces
            .iter()
            .find(|p| p.region.contains(x))
            .expect("point outside certified domain");
        piece.polys.iter().map(|p| p.eval(x)).collect()
    }
}

impl ControlEnclosure for BernsteinCertificate {
    fn state_dim(&self) -> usize {
        self.domain.dim()
    }

    fn control_dim(&self) -> usize {
        self.output_dim
    }

    #[allow(
        clippy::expect_used,
        reason = "pieces_covering yields only intersecting pieces, and the partition covers the domain"
    )]
    fn enclose(&self, q: &BoxRegion) -> Vec<Interval> {
        let mut out: Vec<Option<Interval>> = vec![None; self.output_dim];
        for piece in self.pieces_covering(q) {
            let overlap = piece.region.intersect(q).expect("filtered to intersecting");
            for (o, poly) in piece.polys.iter().enumerate() {
                let iv = poly.enclose(&overlap).inflate(piece.epsilon);
                out[o] = Some(match out[o] {
                    Some(acc) => acc.hull(&iv),
                    None => iv,
                });
            }
        }
        out.into_iter()
            .map(|iv| iv.expect("query box must intersect the certified domain"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cocktail_nn::{Activation, MlpBuilder};

    #[test]
    fn binomial_matches_pascal() {
        assert_eq!(binomial(4, 0), 1.0);
        assert_eq!(binomial(4, 2), 6.0);
        assert_eq!(binomial(5, 3), 10.0);
    }

    #[test]
    fn approximates_linear_function_exactly() {
        // Bernstein operators reproduce affine functions exactly
        let f = |x: &[f64]| 2.0 * x[0] - x[1] + 0.5;
        let domain = BoxRegion::cube(2, -1.0, 1.0);
        let b = BernsteinApprox::build(&f, &domain, 3);
        for p in [[0.0, 0.0], [0.5, -0.5], [1.0, 1.0], [-0.3, 0.7]] {
            assert!((b.eval(&p) - f(&p)).abs() < 1e-9, "at {p:?}");
        }
    }

    #[test]
    fn approximation_error_shrinks_with_degree() {
        let f = |x: &[f64]| (3.0 * x[0]).sin();
        let domain = BoxRegion::cube(1, -1.0, 1.0);
        let errs: Vec<f64> = [2usize, 8, 32]
            .iter()
            .map(|&d| {
                let b = BernsteinApprox::build(&f, &domain, d);
                (0..100)
                    .map(|i| {
                        let x = [-1.0 + 2.0 * i as f64 / 99.0];
                        (b.eval(&x) - f(&x)).abs()
                    })
                    .fold(0.0, f64::max)
            })
            .collect();
        assert!(errs[0] > errs[1] && errs[1] > errs[2], "{errs:?}");
    }

    #[test]
    fn coefficient_range_encloses_values() {
        let f = |x: &[f64]| x[0] * x[0];
        let domain = BoxRegion::cube(1, -1.0, 1.0);
        let b = BernsteinApprox::build(&f, &domain, 5);
        let range = b.coefficient_range();
        for i in 0..50 {
            let x = [-1.0 + 2.0 * i as f64 / 49.0];
            assert!(range.inflate(1e-12).contains(b.eval(&x)));
        }
    }

    #[test]
    fn sub_box_enclosure_contains_poly_values() {
        let f = |x: &[f64]| (x[0] - 0.3) * (x[1] + 0.2);
        let domain = BoxRegion::cube(2, -1.0, 1.0);
        let b = BernsteinApprox::build(&f, &domain, 4);
        let q = BoxRegion::from_bounds(&[-0.25, 0.1], &[0.25, 0.6]);
        let iv = b.enclose(&q);
        let mut rng = cocktail_math::rng::seeded(1);
        for _ in 0..100 {
            let x = cocktail_math::rng::uniform_in_box(&mut rng, &q);
            assert!(iv.inflate(1e-9).contains(b.eval(&x)));
        }
    }

    #[test]
    fn rigorous_bound_scales_with_lipschitz() {
        let domain = BoxRegion::cube(2, -1.0, 1.0);
        let low = rigorous_error_bound(1.0, &domain, 4);
        let high = rigorous_error_bound(10.0, &domain, 4);
        assert!((high - 10.0 * low).abs() < 1e-12);
    }

    fn small_net(seed: u64) -> Mlp {
        MlpBuilder::new(2)
            .hidden(6, Activation::Tanh)
            .output(1, Activation::Tanh)
            .seed(seed)
            .build()
    }

    #[test]
    fn certificate_is_sound_on_samples() {
        let net = small_net(5);
        let domain = BoxRegion::cube(2, -1.0, 1.0);
        let cert = BernsteinCertificate::build(
            &net,
            &[5.0],
            &domain,
            &CertificateConfig {
                tolerance: 0.4,
                ..Default::default()
            },
        )
        .expect("budget suffices");
        let mut rng = cocktail_math::rng::seeded(3);
        for _ in 0..300 {
            let x = cocktail_math::rng::uniform_in_box(&mut rng, &domain);
            let truth = 5.0 * net.forward(&x)[0];
            // enclose a tiny box around x
            let q =
                BoxRegion::from_bounds(&[x[0] - 1e-6, x[1] - 1e-6], &[x[0] + 1e-6, x[1] + 1e-6])
                    .intersect(&domain)
                    .expect("inside");
            let iv = cert.enclose(&q);
            assert!(
                iv[0].inflate(1e-6).contains(truth),
                "{truth} escapes {}",
                iv[0]
            );
        }
    }

    #[test]
    fn lower_lipschitz_needs_fewer_pieces() {
        let net = small_net(6);
        let mut shrunk = net.clone();
        for l in shrunk.layers_mut() {
            l.weights_mut().scale_inplace(0.5);
        }
        let domain = BoxRegion::cube(2, -1.0, 1.0);
        let cfg = CertificateConfig {
            tolerance: 0.3,
            max_pieces: 1 << 14,
            ..Default::default()
        };
        let big = BernsteinCertificate::build(&net, &[10.0], &domain, &cfg).expect("fits");
        let small = BernsteinCertificate::build(&shrunk, &[10.0], &domain, &cfg).expect("fits");
        assert!(
            small.piece_count() <= big.piece_count(),
            "small {} vs big {}",
            small.piece_count(),
            big.piece_count()
        );
        assert!(small.lipschitz() < big.lipschitz());
    }

    #[test]
    fn worker_count_does_not_change_the_certificate() {
        let net = small_net(5);
        let domain = BoxRegion::cube(2, -1.0, 1.0);
        let cfg = CertificateConfig {
            tolerance: 0.35,
            ..Default::default()
        };
        let (reference, ref_stats) =
            BernsteinCertificate::build_with_workers(&net, &[5.0], &domain, &cfg, 1).expect("fits");
        assert!(
            reference.piece_count() > 1,
            "refinement must actually happen"
        );
        assert!(ref_stats.splits > 0);
        for workers in [2usize, 8] {
            let (cert, stats) =
                BernsteinCertificate::build_with_workers(&net, &[5.0], &domain, &cfg, workers)
                    .expect("fits");
            assert_eq!(cert, reference, "workers = {workers}");
            assert_eq!(stats, ref_stats, "workers = {workers}");
        }
    }

    /// The allocating evaluation formula the certificate was first built
    /// with: `to_unit`, a `Vec<Vec>` basis table, a heap index counter.
    fn allocating_eval(poly: &BernsteinApprox, x: &[f64]) -> f64 {
        let t = poly.domain.to_unit(x);
        let d = poly.degree;
        let basis: Vec<Vec<f64>> = t
            .iter()
            .map(|&ti| {
                (0..=d)
                    .map(|k| binomial(d, k) * ti.powi(k as i32) * (1.0 - ti).powi((d - k) as i32))
                    .collect()
            })
            .collect();
        let mut acc = 0.0;
        let mut idx = vec![0usize; t.len()];
        for &c in &poly.coeffs {
            let mut w = c;
            for (i, &k) in idx.iter().enumerate() {
                w *= basis[i][k];
            }
            acc += w;
            advance(&mut idx, d + 1);
        }
        acc
    }

    /// The uniform `m^n` grid through `BoxRegion::lerp`, one `Vec` per point.
    fn lerp_grid(region: &BoxRegion, m: usize) -> Vec<Vec<f64>> {
        let n = region.dim();
        let mut idx = vec![0usize; n];
        (0..m.pow(n as u32))
            .map(|_| {
                let t: Vec<f64> = idx.iter().map(|&k| k as f64 / (m - 1) as f64).collect();
                advance(&mut idx, m);
                region.lerp(&t)
            })
            .collect()
    }

    /// Per-point reference certifier: one `net.forward` per coefficient
    /// and per error sample, evaluated serially — the construction the
    /// batched build must reproduce bit for bit.
    fn per_point_certificate(
        net: &Mlp,
        scale: &[f64],
        domain: &BoxRegion,
        config: &CertificateConfig,
    ) -> (BernsteinCertificate, RefineStats) {
        let max_scale = scale.iter().fold(0.0_f64, |m, &s| m.max(s.abs()));
        let lipschitz = max_scale * net.lipschitz_constant();
        let mut frontier = vec![domain.clone()];
        let mut pieces = Vec::new();
        let mut stats = RefineStats::default();
        while !frontier.is_empty() {
            assert!(pieces.len() + frontier.len() <= config.max_pieces);
            let mut next = Vec::new();
            for region in frontier {
                let f = |x: &[f64], o: usize| net.forward(x)[o] * scale[o];
                let polys: Vec<BernsteinApprox> = (0..scale.len())
                    .map(|o| {
                        let coeffs = lerp_grid(&region, config.degree + 1)
                            .iter()
                            .map(|x| f(x, o))
                            .collect();
                        BernsteinApprox::from_coeffs(region.clone(), config.degree, coeffs)
                    })
                    .collect();
                let m = config.error_samples_per_dim.max(2);
                let rigorous = rigorous_error_bound(lipschitz, &region, config.degree);
                let r = 0.5
                    * region
                        .intervals()
                        .iter()
                        .map(|iv| (iv.width() / (m - 1) as f64).powi(2))
                        .sum::<f64>()
                        .sqrt();
                let mut epsilon: f64 = 0.0;
                for (o, poly) in polys.iter().enumerate() {
                    let worst = lerp_grid(&region, m).iter().fold(0.0_f64, |w, x| {
                        w.max((f(x, o) - allocating_eval(poly, x)).abs())
                    });
                    let sampled = worst + (lipschitz + poly.lipschitz_bound()) * r;
                    epsilon = epsilon.max(sampled.min(rigorous));
                }
                if epsilon > config.tolerance && region.max_width() > 1e-6 {
                    let (a, b) = region.bisect();
                    next.push(a);
                    next.push(b);
                    stats.splits += 1;
                } else {
                    pieces.push(CertPiece {
                        region,
                        polys,
                        epsilon,
                    });
                }
            }
            frontier = next;
            if !frontier.is_empty() {
                stats.depth += 1;
            }
        }
        let cert = BernsteinCertificate {
            pieces,
            domain: domain.clone(),
            output_dim: scale.len(),
            lipschitz,
        };
        (cert, stats)
    }

    #[test]
    fn batched_build_matches_the_per_point_oracle() {
        let two_out = MlpBuilder::new(2)
            .hidden(6, Activation::Tanh)
            .output(2, Activation::Tanh)
            .seed(9)
            .build();
        let domain = BoxRegion::from_bounds(&[-1.0, -0.5], &[1.0, 1.5]);
        let cases = [
            // the shipped shape: coefficient and sample grids coincide
            (small_net(5), vec![5.0], 4, 5, 0.35),
            (two_out.clone(), vec![3.0, -2.0], 3, 4, 0.3),
            // distinct grids: degree 3 sampled at 6 per dimension, and a
            // sample grid coarser than the coefficient grid
            (small_net(5), vec![5.0], 3, 6, 0.35),
            (two_out, vec![3.0, -2.0], 4, 2, 0.6),
        ];
        for (net, scale, degree, samples, tolerance) in cases {
            let cfg = CertificateConfig {
                degree,
                tolerance,
                max_pieces: 4096,
                error_samples_per_dim: samples,
            };
            let (oracle, oracle_stats) = per_point_certificate(&net, &scale, &domain, &cfg);
            assert!(oracle.piece_count() > 1, "refinement must happen");
            for workers in [1usize, 2, 8] {
                let (cert, stats) =
                    BernsteinCertificate::build_with_workers(&net, &scale, &domain, &cfg, workers)
                        .expect("fits");
                assert_eq!(
                    cert, oracle,
                    "degree {degree}, {samples} samples, {workers} workers"
                );
                assert_eq!(stats, oracle_stats);
            }
        }
    }

    #[test]
    fn eval_matches_the_allocating_formula_off_grid() {
        let f = |x: &[f64]| (2.0 * x[0]).sin() * (x[1] - 0.3) + x[2] * x[2];
        let domain = BoxRegion::from_bounds(&[-1.0, 0.0, -0.5], &[1.0, 2.0, 0.5]);
        // degree 30 in 3D needs 93 basis entries: the heap scratch path
        for degree in [1usize, 3, 4, 30] {
            let poly = BernsteinApprox::build(&f, &domain, degree);
            let mut rng = cocktail_math::rng::seeded(11);
            for _ in 0..50 {
                let x = cocktail_math::rng::uniform_in_box(&mut rng, &domain);
                assert_eq!(
                    poly.eval(&x).to_bits(),
                    allocating_eval(&poly, &x).to_bits(),
                    "degree {degree} at {x:?}"
                );
            }
        }
        // a degenerate dimension maps to unit coordinate 0 on both paths
        let flat = BoxRegion::from_bounds(&[-1.0, 0.5, 0.0], &[1.0, 0.5, 0.5]);
        let poly = BernsteinApprox::build(&f, &flat, 4);
        let x = [0.37, 0.5, 0.11];
        assert_eq!(
            poly.eval(&x).to_bits(),
            allocating_eval(&poly, &x).to_bits()
        );
    }

    #[test]
    fn piece_queries_use_the_closed_overlap_rule() {
        let net = small_net(5);
        let domain = BoxRegion::cube(2, -1.0, 1.0);
        let cert = BernsteinCertificate::build(
            &net,
            &[5.0],
            &domain,
            &CertificateConfig {
                tolerance: 0.35,
                ..Default::default()
            },
        )
        .expect("fits");
        let mut rng = cocktail_math::rng::seeded(4);
        let mut queries: Vec<BoxRegion> = (0..40)
            .map(|_| {
                let a = cocktail_math::rng::uniform_in_box(&mut rng, &domain);
                let b = cocktail_math::rng::uniform_in_box(&mut rng, &domain);
                BoxRegion::from_bounds(
                    &[a[0].min(b[0]), a[1].min(b[1])],
                    &[a[0].max(b[0]), a[1].max(b[1])],
                )
            })
            .collect();
        // a degenerate box on a piece boundary touches both neighbours
        queries.push(BoxRegion::from_bounds(&[0.0, -1.0], &[0.0, 1.0]));
        for q in &queries {
            let fast: Vec<_> = cert.pieces_covering(q).map(|p| &p.region).collect();
            let reference: Vec<_> = cert
                .pieces
                .iter()
                .filter(|p| p.region.intersect(q).is_some())
                .map(|p| &p.region)
                .collect();
            assert_eq!(fast, reference, "query {q}");
        }
    }

    #[test]
    fn budget_exhaustion_is_reported() {
        let net = small_net(7);
        let domain = BoxRegion::cube(2, -2.0, 2.0);
        let err = BernsteinCertificate::build(
            &net,
            &[100.0],
            &domain,
            &CertificateConfig {
                tolerance: 1e-3,
                max_pieces: 8,
                ..Default::default()
            },
        )
        .expect_err("tiny budget must blow up");
        assert!(matches!(err, VerifyError::ResourceExhausted { .. }));
    }

    #[test]
    fn eval_matches_network_within_epsilon() {
        let net = small_net(8);
        let domain = BoxRegion::cube(2, -1.0, 1.0);
        let cert =
            BernsteinCertificate::build(&net, &[1.0], &domain, &CertificateConfig::default())
                .expect("fits");
        let x = [0.2, -0.4];
        let approx = cert.eval(&x)[0];
        let truth = net.forward(&x)[0];
        assert!((approx - truth).abs() <= cert.epsilon() + 1e-9);
    }
}
