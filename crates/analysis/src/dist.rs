//! Parsed distribution specifications for Monte-Carlo scenario sampling.
//!
//! A [`DistSpec`] is the value side of a `field ~ dist(args)` binding: the
//! sweep layer parses `fab.node_nm ~ triangular(5,7,10)` into one of these
//! and then draws scenario values from it with a seeded [`Rng`]. Three
//! families cover the disclosure-level uncertainty the paper's inputs carry:
//!
//! * `triangular(low,mode,high)` — the standard expert-elicitation shape for
//!   LCA parameters (a best guess with asymmetric bounds);
//! * `uniform(low,high)` — "somewhere in this range, no preference";
//! * `normal(mu,sigma)` — measurement-style spread around a reported value.
//!
//! Every family samples by inverse-CDF from a *single* uniform draw, so one
//! sample consumes exactly one `next_u64` and sampled sequences are stable
//! under refactors that change nothing but code layout. The normal inverse
//! CDF is Acklam's rational approximation (relative error < 1.15e-9) — pure
//! arithmetic, identical on every platform, no rejection loop.

use crate::rng::Rng;
use core::fmt;

/// A parsed distribution specification for one scenario field.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DistSpec {
    /// `triangular(low,mode,high)` with `low <= mode <= high`, `low < high`.
    Triangular {
        /// Lower bound.
        low: f64,
        /// Most likely value.
        mode: f64,
        /// Upper bound.
        high: f64,
    },
    /// `uniform(low,high)` with `low < high`.
    Uniform {
        /// Lower bound (inclusive).
        low: f64,
        /// Upper bound (exclusive).
        high: f64,
    },
    /// `normal(mu,sigma)` with `sigma > 0`.
    Normal {
        /// Mean.
        mu: f64,
        /// Standard deviation.
        sigma: f64,
    },
}

/// Why a distribution specification failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DistError {
    /// The offending spec text.
    pub spec: String,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for DistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid distribution `{}`: {}", self.spec, self.message)
    }
}

impl std::error::Error for DistError {}

fn error(spec: &str, message: impl Into<String>) -> DistError {
    DistError {
        spec: spec.to_string(),
        message: message.into(),
    }
}

/// Parses the comma-separated argument list of a spec into exactly `N`
/// finite floats.
fn args<const N: usize>(spec: &str, body: &str) -> Result<[f64; N], DistError> {
    let parts: Vec<&str> = body.split(',').map(str::trim).collect();
    if parts.len() != N {
        return Err(error(
            spec,
            format!("expected {N} arguments, found {}", parts.len()),
        ));
    }
    let mut out = [0.0; N];
    for (slot, part) in out.iter_mut().zip(&parts) {
        let value: f64 = part
            .parse()
            .map_err(|_| error(spec, format!("`{part}` is not a number")))?;
        if !value.is_finite() {
            return Err(error(spec, format!("`{part}` is not finite")));
        }
        *slot = value;
    }
    Ok(out)
}

impl DistSpec {
    /// Parses `triangular(low,mode,high)`, `uniform(low,high)` or
    /// `normal(mu,sigma)`. Whitespace around the name, parentheses and
    /// arguments is ignored; anything else is an error.
    pub fn parse(text: &str) -> Result<Self, DistError> {
        let spec = text.trim();
        let Some((name, rest)) = spec.split_once('(') else {
            return Err(error(
                spec,
                "expected `triangular(low,mode,high)`, `uniform(low,high)` \
                 or `normal(mu,sigma)`",
            ));
        };
        let Some(body) = rest.strip_suffix(')') else {
            return Err(error(spec, "missing closing `)`"));
        };
        match name.trim() {
            "triangular" => {
                let [low, mode, high] = args(spec, body)?;
                if !(low <= mode && mode <= high) {
                    return Err(error(spec, "require low <= mode <= high"));
                }
                if low >= high {
                    return Err(error(spec, "require low < high"));
                }
                Ok(Self::Triangular { low, mode, high })
            }
            "uniform" => {
                let [low, high] = args(spec, body)?;
                if low >= high {
                    return Err(error(spec, "require low < high"));
                }
                Ok(Self::Uniform { low, high })
            }
            "normal" => {
                let [mu, sigma] = args(spec, body)?;
                if sigma <= 0.0 {
                    return Err(error(spec, "require sigma > 0"));
                }
                Ok(Self::Normal { mu, sigma })
            }
            other => Err(error(
                spec,
                format!("unknown distribution `{other}` (try triangular, uniform or normal)"),
            )),
        }
    }

    /// A symmetric triangular band of ±`rel` (relative) around `mode` — the
    /// shape `ext-mc` gives each disclosure-level input.
    #[must_use]
    pub fn triangular_around(mode: f64, rel: f64) -> Self {
        let half = mode.abs() * rel;
        Self::Triangular {
            low: mode - half,
            mode,
            high: mode + half,
        }
    }

    /// The central value of the distribution — the mode, midpoint or mean.
    /// The Monte-Carlo matrix probes this against the base scenario's
    /// validation rules before any sampling, so `uniform(-1,1)` on a
    /// strictly-positive field fails fast instead of on a random sample.
    #[must_use]
    pub fn central(&self) -> f64 {
        match *self {
            Self::Triangular { mode, .. } => mode,
            Self::Uniform { low, high } => (low + high) / 2.0,
            Self::Normal { mu, .. } => mu,
        }
    }

    /// Draws one sample by inverse-CDF. Consumes exactly one `next_u64`
    /// from `rng` regardless of the family.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> f64 {
        // Uniform in the *open* interval (0, 1): the +0.5 offset keeps the
        // normal inverse CDF away from its poles at 0 and 1.
        let u = ((rng.next_u64() >> 11) as f64 + 0.5) / (1u64 << 53) as f64;
        match *self {
            Self::Triangular { low, mode, high } => {
                let fc = (mode - low) / (high - low);
                if u < fc {
                    low + (u * (high - low) * (mode - low)).sqrt()
                } else {
                    high - ((1.0 - u) * (high - low) * (high - mode)).sqrt()
                }
            }
            Self::Uniform { low, high } => low + u * (high - low),
            Self::Normal { mu, sigma } => mu + sigma * inverse_normal_cdf(u),
        }
    }
}

impl fmt::Display for DistSpec {
    /// Canonical round-trippable text: `DistSpec::parse(&spec.to_string())`
    /// reproduces `spec` exactly. This is the form artifact metadata and
    /// served requests echo.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Self::Triangular { low, mode, high } => {
                write!(f, "triangular({low},{mode},{high})")
            }
            Self::Uniform { low, high } => write!(f, "uniform({low},{high})"),
            Self::Normal { mu, sigma } => write!(f, "normal({mu},{sigma})"),
        }
    }
}

/// Acklam's inverse-normal-CDF approximation (relative error < 1.15e-9 over
/// the open unit interval). Rational minimax fits on three regions; pure
/// arithmetic plus `sqrt`/`ln`, so it evaluates identically everywhere.
fn inverse_normal_cdf(p: f64) -> f64 {
    debug_assert!(p > 0.0 && p < 1.0);
    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_69e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -5.447_609_879_822_406e1,
        1.615_858_368_580_409e2,
        -1.556_989_798_598_866e2,
        6.680_131_188_771_972e1,
        -1.328_068_155_288_572e1,
    ];
    const C: [f64; 6] = [
        -7.784_894_002_430_293e-3,
        -3.223_964_580_411_365e-1,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] = [
        7.784_695_709_041_462e-3,
        3.224_671_290_700_398e-1,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];
    const P_LOW: f64 = 0.02425;

    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;
    use crate::stats::StreamingStats;

    #[test]
    fn parses_all_three_families() {
        assert_eq!(
            DistSpec::parse("triangular(5,7,10)").unwrap(),
            DistSpec::Triangular {
                low: 5.0,
                mode: 7.0,
                high: 10.0
            }
        );
        assert_eq!(
            DistSpec::parse(" uniform( 1.2 , 1.4 ) ").unwrap(),
            DistSpec::Uniform {
                low: 1.2,
                high: 1.4
            }
        );
        assert_eq!(
            DistSpec::parse("normal(380,25)").unwrap(),
            DistSpec::Normal {
                mu: 380.0,
                sigma: 25.0
            }
        );
    }

    #[test]
    fn display_round_trips() {
        for text in ["triangular(5,7,10)", "uniform(1.2,1.4)", "normal(380,25)"] {
            let spec = DistSpec::parse(text).unwrap();
            assert_eq!(spec.to_string(), text);
            assert_eq!(DistSpec::parse(&spec.to_string()).unwrap(), spec);
        }
    }

    #[test]
    fn rejects_malformed_specs() {
        for (text, fragment) in [
            ("triangular", "expected"),
            ("triangular(5,7", "closing"),
            ("triangular(5,7)", "expected 3 arguments"),
            ("triangular(7,5,10)", "low <= mode <= high"),
            ("triangular(5,5,5)", "low < high"),
            ("uniform(2,1)", "low < high"),
            ("uniform(1,nope)", "not a number"),
            ("uniform(1,inf)", "not finite"),
            ("normal(0,0)", "sigma > 0"),
            ("lognormal(1,2)", "unknown distribution"),
        ] {
            let err = DistSpec::parse(text).unwrap_err();
            assert!(
                err.to_string().contains(fragment),
                "{text}: {err} should mention {fragment}"
            );
        }
    }

    #[test]
    fn central_values() {
        assert_eq!(
            DistSpec::parse("triangular(5,7,10)").unwrap().central(),
            7.0
        );
        assert_eq!(DistSpec::parse("uniform(1,3)").unwrap().central(), 2.0);
        assert_eq!(DistSpec::parse("normal(380,25)").unwrap().central(), 380.0);
    }

    #[test]
    fn samples_stay_in_bounds_and_near_expectation() {
        let tri = DistSpec::parse("triangular(5,7,10)").unwrap();
        let uni = DistSpec::parse("uniform(1.2,1.4)").unwrap();
        let mut rng = SplitMix64::seed_from_u64(7);
        let mut tri_stats = StreamingStats::new();
        let mut uni_stats = StreamingStats::new();
        for _ in 0..20_000 {
            let t = tri.sample(&mut rng);
            assert!((5.0..=10.0).contains(&t));
            tri_stats.push(t);
            let v = uni.sample(&mut rng);
            assert!((1.2..1.4).contains(&v));
            uni_stats.push(v);
        }
        // Triangular mean = (5 + 7 + 10) / 3.
        let tri_mean = tri_stats.summary().unwrap().mean;
        assert!((tri_mean - 22.0 / 3.0).abs() < 0.03, "{tri_mean}");
        let uni_mean = uni_stats.summary().unwrap().mean;
        assert!((uni_mean - 1.3).abs() < 0.002, "{uni_mean}");
    }

    #[test]
    fn normal_sampling_matches_moments_and_quantiles() {
        let dist = DistSpec::parse("normal(100,15)").unwrap();
        let mut rng = SplitMix64::seed_from_u64(11);
        let mut stats = StreamingStats::new();
        for _ in 0..50_000 {
            stats.push(dist.sample(&mut rng));
        }
        let s = stats.summary().unwrap();
        assert!((s.mean - 100.0).abs() < 0.3, "{}", s.mean);
        assert!((s.stddev - 15.0).abs() < 0.3, "{}", s.stddev);
        // N(100, 15): p05 ≈ 100 − 1.6449·15 ≈ 75.3, p95 ≈ 124.7.
        assert!((s.p05 - 75.33).abs() < 1.0, "{}", s.p05);
        assert!((s.p95 - 124.67).abs() < 1.0, "{}", s.p95);
    }

    #[test]
    fn inverse_normal_cdf_hits_known_quantiles() {
        for (p, z) in [
            (0.5, 0.0),
            (0.975, 1.959_964),
            (0.025, -1.959_964),
            (0.95, 1.644_854),
            (0.01, -2.326_348),
            (0.001, -3.090_232),
        ] {
            assert!(
                (inverse_normal_cdf(p) - z).abs() < 1e-5,
                "phi^-1({p}) = {} != {z}",
                inverse_normal_cdf(p)
            );
        }
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let dist = DistSpec::parse("triangular(5,7,10)").unwrap();
        let draw = |seed| {
            let mut rng = SplitMix64::seed_from_u64(seed);
            (0..16).map(|_| dist.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
    }
}
