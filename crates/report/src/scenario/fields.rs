//! The scenario field table: every settable field, declared once.
//!
//! Each row of the `scenario_fields!` invocation below names one struct
//! field of a [`Scenario`] section together with its canonical dotted path,
//! aliases, paper default, bounds (one validation text that is both the
//! `… must be <text>` error message and the reference-doc column), semantic
//! flag and one-line doc. Everything that used to spell each field out by
//! hand is derived from the rows: [`Scenario::paper_defaults`], the scalar
//! half of [`Scenario::set`] / [`ScenarioOverlay::set`](super::ScenarioOverlay::set),
//! TOML and JSON serialization (in table order), the bounds half of
//! [`Scenario::validate`], the canonical value text dependency fingerprints
//! hash ([`Scenario::field_value`]) and the generated
//! `docs/scenario-reference.md`.
//!
//! Single-field operations dispatch through function pointers generated
//! per row (or a generated `match` for path lookup), and the whole-scenario
//! hot passes — JSON output and the bounds checks — are generated as
//! straight-line code, so no value is ever formatted and re-parsed. Adding
//! a scenario field takes one struct field plus one row.
//! Only the compound paths (`fleet.mix[<sku>]`,
//! `fleet.sites[<site>].weight|.region`, `grid.region.<name>.trace`),
//! `grid.source` resolution and the cross-field composition checks stay
//! hand-written in the parent module.

use super::deps::FieldSource;
use super::mc::MonteCarloMatrix;
use super::{quote, trace, unquote};
use super::{DeviceParams, FabParams, FleetParams, GridParams, McParams};
use super::{RegionParams, Scenario, ScenarioError, SiteParams};
use crate::json::{write_object, WriteJson};
use core::fmt;

/// One row of the field table: a settable scenario field's metadata plus
/// the generated accessors behind it.
pub struct Field {
    /// Canonical dotted path (`grid.intensity`).
    pub path: &'static str,
    /// Accepted alias paths (`grid.intensity_g_per_kwh`).
    pub aliases: &'static [&'static str],
    /// TOML table / JSON object holding the field (`grid`); empty for the
    /// top-level `name`.
    pub section: &'static str,
    /// Key within the section in TOML and JSON (`intensity_g_per_kwh`).
    pub key: &'static str,
    /// Human-readable type (`f64`, `u32`, `string`, `list of f64`).
    pub ty: &'static str,
    /// The validation rule. Bounded fields report a violation as
    /// `<path> must be <validation>`; the rest are checked across fields by
    /// [`Scenario::validate`].
    pub validation: &'static str,
    /// Whether the field participates in dependency fingerprints. `name`
    /// only labels artifacts and `grid.source` resolves into
    /// `grid.intensity` at set time, so neither can change an experiment's
    /// numbers on its own.
    pub semantic: bool,
    /// Whether the field accepts a distribution binding
    /// (`path ~ triangular(…)`) in a Monte-Carlo run: only semantic
    /// real-valued fields do — integer, string and list fields have no
    /// continuous sample space.
    pub distribution_eligible: bool,
    /// One-line description.
    pub doc: &'static str,
    quoted: bool,
    write: fn(&dyn FieldSource, &mut dyn fmt::Write) -> fmt::Result,
    unset: fn(&dyn FieldSource) -> bool,
    set: fn(&mut dyn FieldSink, &str, &str) -> Result<(), ScenarioError>,
}

impl Field {
    /// Whether `path` names this field, canonically or by an alias.
    pub(crate) fn matches(&self, path: &str) -> bool {
        self.path == path || self.aliases.contains(&path)
    }

    /// Streams the field's canonical value text out of `source`.
    pub(crate) fn write_value(&self, source: &dyn FieldSource, out: &mut dyn fmt::Write) {
        (self.write)(source, out).expect("field-value sinks are infallible");
    }

    /// Parses `value` into the field of `sink`; `key` is the spelling the
    /// caller used, for error messages.
    pub(crate) fn set(
        &self,
        sink: &mut dyn FieldSink,
        key: &str,
        value: &str,
    ) -> Result<(), ScenarioError> {
        (self.set)(sink, key, value)
    }
}

/// The canonical spelling of `path`: the row's path for a canonical path
/// or alias, `path` itself for a compound path.
pub(crate) fn canonical(path: &str) -> &str {
    lookup(path).map_or(path, |f| f.path)
}

/// Write access to the scenario sections a row's setter assigns into.
/// [`Scenario`] hands out its own sections; a copy-on-write overlay clones
/// the touched section into its delta on first access.
pub(crate) trait FieldSink {
    fn name(&mut self) -> &mut String;
    fn grid(&mut self) -> &mut GridParams;
    fn device(&mut self) -> &mut DeviceParams;
    fn fab(&mut self) -> &mut FabParams;
    fn fleet(&mut self) -> &mut FleetParams;
    fn mc(&mut self) -> &mut McParams;
}

/// How a field type reads: canonical text, JSON form ([`WriteJson`]) and
/// documented type.
trait Value: WriteJson {
    const TY: &'static str;
    /// Whether a Monte-Carlo draw can be assigned to the field.
    const CONTINUOUS: bool = false;
    /// Whether TOML writes the canonical text as a quoted string.
    const QUOTED: bool = true;
    fn write(&self, out: &mut dyn fmt::Write) -> fmt::Result;
    /// Whether TOML omits the field because it holds nothing.
    fn unset(&self) -> bool {
        false
    }
    /// Whether the value is a finite number (non-numbers always are).
    fn finite(&self) -> bool {
        true
    }
}

/// How a field type parses from `--set` / TOML value text.
trait Parse: Sized {
    fn parse(key: &str, value: &str) -> Result<Self, ScenarioError>;
}

/// An [`ScenarioError::InvalidValue`] naming `key` and the raw `value`.
pub(super) fn invalid(key: &str, value: &str) -> ScenarioError {
    ScenarioError::InvalidValue {
        key: key.to_string(),
        value: value.to_string(),
    }
}

impl Value for f64 {
    const TY: &'static str = "f64";
    const CONTINUOUS: bool = true;
    const QUOTED: bool = false;
    fn write(&self, out: &mut dyn fmt::Write) -> fmt::Result {
        write!(out, "{self:?}")
    }
    fn finite(&self) -> bool {
        self.is_finite()
    }
}

impl Parse for f64 {
    fn parse(key: &str, value: &str) -> Result<Self, ScenarioError> {
        super::f64_of(key, value)
    }
}

macro_rules! integer_value {
    ($($t:ty),+) => {$(
        impl Value for $t {
            const TY: &'static str = stringify!($t);
            const QUOTED: bool = false;
            fn write(&self, out: &mut dyn fmt::Write) -> fmt::Result {
                write!(out, "{self}")
            }
        }

        impl Parse for $t {
            fn parse(key: &str, value: &str) -> Result<Self, ScenarioError> {
                let wide: u64 = value.trim().parse().map_err(|_| invalid(key, value))?;
                Self::try_from(wide).map_err(|_| invalid(key, value))
            }
        }
    )+};
}

integer_value!(u16, u32, u64);

impl Value for str {
    const TY: &'static str = "string";
    fn write(&self, out: &mut dyn fmt::Write) -> fmt::Result {
        out.write_str(self)
    }
}

impl Parse for String {
    fn parse(_key: &str, value: &str) -> Result<Self, ScenarioError> {
        Ok(unquote(value))
    }
}

impl Value for Option<String> {
    const TY: &'static str = "string";
    fn write(&self, out: &mut dyn fmt::Write) -> fmt::Result {
        out.write_str(self.as_deref().unwrap_or_default())
    }
    fn unset(&self) -> bool {
        self.is_none()
    }
}

impl Parse for Option<String> {
    fn parse(_key: &str, value: &str) -> Result<Self, ScenarioError> {
        let text = unquote(value);
        Ok((!text.is_empty()).then_some(text))
    }
}

/// Streams `items` separated by `sep`, each through `item`.
fn write_list<T>(
    out: &mut dyn fmt::Write,
    items: &[T],
    sep: char,
    item: impl Fn(&mut dyn fmt::Write, &T) -> fmt::Result,
) -> fmt::Result {
    for (i, x) in items.iter().enumerate() {
        if i > 0 {
            out.write_char(sep)?;
        }
        item(out, x)?;
    }
    Ok(())
}

/// Parses a `sep`-separated list value, optionally TOML-quoted; an empty
/// string is the empty list. Element checks beyond the shape `item`
/// enforces happen in [`Scenario::validate`].
fn parse_list<T>(
    value: &str,
    sep: char,
    item: impl Fn(&str) -> Result<T, ScenarioError>,
) -> Result<Vec<T>, ScenarioError> {
    let text = unquote(value);
    let text = text.trim();
    if text.is_empty() {
        return Ok(Vec::new());
    }
    text.split(sep).map(item).collect()
}

/// Renewable ramp / trace hours: `0.05,0.1,1.0`.
impl Value for Vec<f64> {
    const TY: &'static str = "list of f64";
    fn write(&self, out: &mut dyn fmt::Write) -> fmt::Result {
        write_list(out, self, ',', |out, v| write!(out, "{v:?}"))
    }
}

impl Parse for Vec<f64> {
    fn parse(key: &str, value: &str) -> Result<Self, ScenarioError> {
        parse_list(value, ',', |part| {
            part.trim().parse().map_err(|_| invalid(key, value))
        })
    }
}

/// Fleet mix: `web:0.7,ai-training:0.3`.
impl Value for Vec<(String, f64)> {
    const TY: &'static str = "weighted list";
    fn write(&self, out: &mut dyn fmt::Write) -> fmt::Result {
        write_list(out, self, ',', |out, (name, w)| write!(out, "{name}:{w:?}"))
    }
    fn unset(&self) -> bool {
        self.is_empty()
    }
}

impl Parse for Vec<(String, f64)> {
    fn parse(key: &str, value: &str) -> Result<Self, ScenarioError> {
        parse_list(value, ',', |part| {
            let (name, weight) = part.split_once(':').ok_or_else(|| invalid(key, value))?;
            let name = name.trim();
            if name.is_empty() {
                return Err(invalid(key, value));
            }
            let weight = weight.trim().parse().map_err(|_| invalid(key, value))?;
            Ok((name.to_string(), weight))
        })
    }
}

/// Fleet sites: `main@default:0.7,pnw@hydro:0.3`.
impl Value for Vec<SiteParams> {
    const TY: &'static str = "weighted list";
    fn write(&self, out: &mut dyn fmt::Write) -> fmt::Result {
        write_list(out, self, ',', |out, s| {
            write!(out, "{}@{}:{:?}", s.name, s.region, s.weight)
        })
    }
    fn unset(&self) -> bool {
        self.is_empty()
    }
}

impl Parse for Vec<SiteParams> {
    fn parse(key: &str, value: &str) -> Result<Self, ScenarioError> {
        parse_list(value, ',', |part| {
            let bad = || invalid(key, value);
            let (name, rest) = part.split_once('@').ok_or_else(bad)?;
            let (region, weight) = rest.rsplit_once(':').ok_or_else(bad)?;
            let (name, region) = (name.trim(), region.trim());
            if name.is_empty() || region.is_empty() {
                return Err(bad());
            }
            Ok(SiteParams {
                name: name.to_string(),
                region: region.to_string(),
                weight: weight.trim().parse().map_err(|_| bad())?,
            })
        })
    }
}

/// Grid regions: `name:h0,…,h23;…` (each spec may also be any
/// [`trace::parse_trace_spec`] form).
impl Value for Vec<RegionParams> {
    const TY: &'static str = "trace map";
    fn write(&self, out: &mut dyn fmt::Write) -> fmt::Result {
        write_list(out, self, ';', |out, r| {
            write!(out, "{}:", r.name)?;
            r.hours.write(out)
        })
    }
    fn unset(&self) -> bool {
        self.is_empty()
    }
}

impl Parse for Vec<RegionParams> {
    fn parse(key: &str, value: &str) -> Result<Self, ScenarioError> {
        parse_list(value, ';', |part| {
            let (name, spec) = part.split_once(':').ok_or_else(|| invalid(key, value))?;
            let name = name.trim();
            if name.is_empty() {
                return Err(invalid(key, value));
            }
            Ok(RegionParams {
                name: name.to_string(),
                hours: trace::parse_trace_spec(key, spec)?,
            })
        })
    }
}

/// Fleet mix as an object of `sku: weight`.
impl WriteJson for Vec<(String, f64)> {
    fn write_json(&self, out: &mut String) {
        write_object(out, |o| {
            for (name, w) in self {
                o.field(name, w);
            }
        });
    }
}

impl WriteJson for SiteParams {
    fn write_json(&self, out: &mut String) {
        write_object(out, |o| {
            o.field("name", &self.name)
                .field("region", &self.region)
                .field("weight", &self.weight);
        });
    }
}

impl WriteJson for RegionParams {
    fn write_json(&self, out: &mut String) {
        write_object(out, |o| {
            o.field("name", &self.name).field("hours", &self.hours);
        });
    }
}

/// Declares the table: one `static` row per field, the [`FIELDS`] list in
/// canonical order, [`lookup`], and the whole-scenario passes built from
/// the rows ([`Scenario::paper_defaults`], the scenario JSON stream
/// `write_json` and `check_bounds`). A row reads
/// `CONST field: Type = default, "path" ["alias", …], "validation" if |v| bound, semantic, "doc";`
/// where `Type` is the type the row reads the field as and the bound, when
/// present, receives a reference to the value (f64 rows are additionally
/// required to be finite). The pseudo-section `name` holds the one
/// top-level field.
macro_rules! scenario_fields {
    (@section $sec:ident) => { "" };
    (@section $sec:ident $field:ident) => { stringify!($sec) };
    (@key $sec:ident) => { stringify!($sec) };
    (@key $sec:ident $field:ident) => { stringify!($field) };
    (@default { : $default:expr }) => { $default };
    (@default $Sec:ident { $($field:ident: $default:expr),+ }) => { $Sec { $($field: $default),+ } };
    (@json $o:ident $s:ident $sec:ident { : $ty:ty }) => {
        $o.field(stringify!($sec), $s.$sec())
    };
    (@json $o:ident $s:ident $sec:ident $Sec:ident { $($field:ident: $ty:ty),+ }) => {
        write_object($o.key(stringify!($sec)), |section| {
            $(section.field(stringify!($field), &$s.$sec().$field);)+
        })
    };
    ($(
        $sec:ident $(: $Sec:ident)? {$(
            $ROW:ident $($field:ident)?: $ty:ty = $default:expr,
            $path:literal $([$($alias:literal),+])?,
            $validation:literal $(if |$v:ident| $bound:expr)?,
            $semantic:literal,
            $doc:literal;
        )+}
    )+) => {
        $($(
            #[doc = $doc]
            pub(crate) static $ROW: Field = Field {
                path: $path,
                aliases: &[$($($alias),+)?],
                section: scenario_fields!(@section $sec $($field)?),
                key: scenario_fields!(@key $sec $($field)?),
                ty: <$ty as Value>::TY,
                validation: $validation,
                semantic: $semantic,
                distribution_eligible: $semantic && <$ty as Value>::CONTINUOUS,
                doc: $doc,
                quoted: <$ty as Value>::QUOTED,
                write: |s, out| <$ty as Value>::write(&(*s.$sec())$(.$field)?, out),
                unset: |s| <$ty as Value>::unset(&(*s.$sec())$(.$field)?),
                set: |sink, key, value| {
                    (*sink.$sec())$(.$field)? = Parse::parse(key, value)?;
                    Ok(())
                },
            };
        )+)+

        /// Every settable scenario field, in canonical (TOML) order: the
        /// single source of truth for `--set` paths, serialization,
        /// validation, dependency expansion and the generated scenario
        /// reference.
        pub static FIELDS: &[&Field] = &[$($(&$ROW),+),+];

        /// The table row `path` names, canonically or by an alias. Compound
        /// paths (`fleet.mix[web]`) have no row.
        #[must_use]
        pub fn lookup(path: &str) -> Option<&'static Field> {
            match path {
                $($($path $($(| $alias)+)? => Some(&$ROW),)+)+
                _ => None,
            }
        }

        impl Scenario {
            /// The exact parameter values the paper's evaluation used.
            #[must_use]
            pub fn paper_defaults() -> Self {
                Self {$(
                    $sec: scenario_fields!(@default $($Sec)? { $($($field)?: $default),+ }),
                )+}
            }
        }

        /// Streams the scenario `s` resolves to as a JSON object (for
        /// `--json` artifacts): one member per row, nested by section, in
        /// table order.
        pub(super) fn write_json<S: FieldSource + ?Sized>(s: &S, out: &mut String) {
            write_object(out, |o| {
                $(scenario_fields!(@json o s $sec $($Sec)? { $($($field)?: $ty),+ });)+
            });
        }

        /// Checks every bounded row (and the finiteness of every `f64` row),
        /// naming the first violated one.
        pub(super) fn check_bounds<S: FieldSource + ?Sized>(s: &S) -> Result<(), ScenarioError> {
            $($(
                let value: &$ty = &(*s.$sec())$(.$field)?;
                if !(Value::finite(value) $(&& { let $v = value; $bound })?) {
                    let message = format!("{} must be {}", $ROW.path, $ROW.validation);
                    return Err(ScenarioError::Invalid(message));
                }
            )+)+
            Ok(())
        }
    };
}

scenario_fields! {
    name {
        NAME: str = "paper".to_string(), "name", "any string", false,
            "Human-readable scenario name; appears in artifact metadata only";
    }
    grid: GridParams {
        GRID_INTENSITY intensity_g_per_kwh: f64 = 380.0,
            "grid.intensity" ["grid.intensity_g_per_kwh"],
            "finite and positive" if |v| *v > 0.0, true,
            "Operational grid carbon intensity in g CO2e/kWh";
        GRID_SOURCE source: Option<String> = None, "grid.source",
            "must name a Table II energy source (case-insensitive)", false,
            "Energy-source label; setting it resolves grid.intensity to the Table II value";
        GRID_RENEWABLE_FRACTION renewable_fraction: f64 = 0.0, "grid.renewable_fraction",
            "in [0, 1]" if |v| (0.0..=1.0).contains(v), true,
            "Fraction of operational energy covered by renewable purchases";
        GRID_REGIONS regions: Vec<RegionParams> = Vec::new(), "grid.regions",
            "unique non-empty names; 24 finite non-negative hourly values each", true,
            "Named grid regions with 24-hour intensity traces; per-region specs \
             (`solar(night,noon)`, `flat(v)`, inline list, `*.csv`) are settable via \
             `grid.region.<name>.trace` and resolve at set time (see docs/GRID-TRACES.md)";
    }
    device: DeviceParams {
        DEVICE_LIFETIME lifetime_years: f64 = 3.0, "device.lifetime" ["device.lifetime_years"],
            "finite and positive" if |v| *v > 0.0, true,
            "Assumed device lifetime in years";
        DEVICE_SOC_BUDGET_SHARE soc_budget_share: f64 = 0.5, "device.soc_budget_share",
            "in (0, 1]" if |v| *v > 0.0 && *v <= 1.0, true,
            "Share of a device's production carbon attributed to its SoC";
    }
    fab: FabParams {
        FAB_NODE_NM node_nm: f64 = 3.0, "fab.node_nm" ["fab.node"],
            "finite and positive" if |v| *v > 0.0, true,
            "Featured process node in nanometres";
        FAB_YIELD_FACTOR yield_factor: f64 = 1.0, "fab.yield_factor",
            "finite and positive" if |v| *v > 0.0, true,
            "Multiplier on the baseline defect density (1.0 = 0.1 /cm2)";
        FAB_RENEWABLE_SHARE renewable_share: f64 = 0.2, "fab.renewable_share",
            "in [0, 1]" if |v| (0.0..=1.0).contains(v), true,
            "Share of fab electricity from renewables";
    }
    fleet: FleetParams {
        FLEET_SCALE scale: f64 = 1.0, "fleet.scale",
            "finite and positive" if |v| *v > 0.0, true,
            "Demand multiplier applied to fleet-sizing experiments";
        FLEET_SKU sku: str = "web".to_string(), "fleet.sku",
            "one of: web, storage, ai-training", true,
            "Server SKU of a pure (single-SKU) fleet; a non-empty fleet.mix overrides it";
        FLEET_MIX mix: Vec<(String, f64)> = Vec::new(), "fleet.mix",
            "known SKUs, no duplicates, weights >= 0 summing to 1; empty = pure fleet.sku", true,
            "Weighted fleet composition (`web:0.7,ai-training:0.3`); one SKU's weight is \
             sweepable via `fleet.mix[<sku>]`, which renormalizes the rest";
        FLEET_SITES sites: Vec<SiteParams> = Vec::new(), "fleet.sites",
            "unique names, weights >= 0 summing to 1, regions configured or builtin; \
             empty = one `main` site in the `default` region", true,
            "Multi-site fleet composition (`main@default:0.7,pnw@hydro:0.3`); one site's \
             share is sweepable via `fleet.sites[<site>].weight` (renormalizing the rest) \
             and its region settable via `fleet.sites[<site>].region`";
        FLEET_DEFERRABLE deferrable: f64 = 0.2, "fleet.deferrable",
            "in [0, 1]" if |v| (0.0..=1.0).contains(v), true,
            "Fraction of fleet IT energy that is deferrable batch work the carbon-aware \
             scheduler may move across hours and sites";
        FLEET_INITIAL_SERVERS initial_servers: u64 = 60_000, "fleet.initial_servers",
            ">= 1" if |v| *v >= 1, true,
            "Servers in service in the facility's first simulated year";
        FLEET_GROWTH growth: f64 = 1.28, "fleet.growth",
            "finite and positive" if |v| *v > 0.0, true,
            "Annual server-fleet growth factor (1.0 = flat fleet)";
        FLEET_PUE pue: f64 = 1.10, "fleet.pue",
            "finite and >= 1.0" if |v| *v >= 1.0, true,
            "Power usage effectiveness of the facility";
        FLEET_RENEWABLE_RAMP renewable_ramp: Vec<f64> = vec![0.05, 0.10, 0.20, 0.35, 0.60, 0.85, 1.0],
            "fleet.renewable_ramp" ["fleet.ramp"],
            "non-empty, every value in [0, 1]"
                if |v| !v.is_empty() && v.iter().all(|x| (0.0..=1.0).contains(x)), true,
            "Renewable (PPA) coverage fraction per simulated year; last value holds";
        FLEET_CONSTRUCTION_KT construction_kt: f64 = 150.0,
            "fleet.construction_kt" ["fleet.construction"],
            "finite and >= 0" if |v| *v >= 0.0, true,
            "Total construction embodied carbon in kt CO2e";
        FLEET_BUILDING_AMORTIZATION_YEARS building_amortization_years: f64 = 20.0,
            "fleet.building_amortization_years" ["fleet.building_amortization"],
            "finite and positive" if |v| *v > 0.0, true,
            "Building-amortization window in years over which construction carbon is spread";
        FLEET_START_YEAR start_year: u16 = 2013, "fleet.start_year",
            "in 1900..=2100" if |v| (1900..=2100).contains(v), true,
            "Calendar year the facility enters service (shifts the year axis)";
        FLEET_HORIZON_YEARS horizon_years: u32 = 7, "fleet.horizon_years" ["fleet.horizon"],
            "in 1..=200" if |v| (1..=200).contains(v), true,
            "Simulated planning horizon in years";
    }
    mc: McParams {
        MC_SEED seed: u64 = 10, "mc.seed", "any", true,
            "Base RNG seed for the Monte-Carlo experiment";
        MC_SAMPLES samples: u32 = 20_000, "mc.samples",
            "in 1..=1000000" if |v| (1..=MonteCarloMatrix::MAX_SAMPLES).contains(&(*v as usize)), true,
            "Monte-Carlo trials per propagated headline";
    }
}

impl Scenario {
    /// Serializes the scenario to canonical TOML (parseable by
    /// [`Self::from_toml`]): one `key = value` line per row in table order,
    /// omitting unset optional fields.
    #[must_use]
    pub fn to_toml(&self) -> String {
        let mut out = String::new();
        let mut section = "";
        for field in FIELDS {
            if field.section != section {
                section = field.section;
                out.push_str(&format!("\n[{section}]\n"));
            }
            if (field.unset)(self) {
                continue;
            }
            out.push_str(field.key);
            out.push_str(" = ");
            if field.quoted {
                let mut text = String::new();
                field.write_value(self, &mut text);
                out.push_str(&quote(&text));
            } else {
                field.write_value(self, &mut out);
            }
            out.push('\n');
        }
        out
    }

    /// The canonical string form of the field at `path` (canonical paths
    /// only — aliases are accepted by [`Scenario::set`], not here). This is
    /// the value text dependency fingerprints hash and the generated
    /// reference documents as the paper default.
    #[must_use]
    pub fn field_value(&self, path: &str) -> Option<String> {
        let field = FIELDS.iter().find(|f| f.path == path)?;
        let mut out = String::new();
        field.write_value(self, &mut out);
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_resolves_canonical_paths_and_aliases_only() {
        assert!(std::ptr::eq(lookup("fab.node").unwrap(), &FAB_NODE_NM));
        assert!(std::ptr::eq(lookup("fab.node_nm").unwrap(), &FAB_NODE_NM));
        assert_eq!(canonical("grid.intensity_g_per_kwh"), "grid.intensity");
        assert_eq!(canonical("fleet.mix[web]"), "fleet.mix[web]");
        assert!(lookup("fleet.mix[web]").is_none());
        assert!(lookup("grid").is_none());
    }

    #[test]
    fn paths_and_aliases_are_unique_and_keyed_by_section() {
        let mut spellings: Vec<&str> = FIELDS
            .iter()
            .flat_map(|f| std::iter::once(f.path).chain(f.aliases.iter().copied()))
            .collect();
        let total = spellings.len();
        spellings.sort_unstable();
        spellings.dedup();
        assert_eq!(spellings.len(), total, "a spelling names two rows");
        for f in FIELDS {
            match f.section {
                "" => assert_eq!(f.path, f.key),
                section => assert!(f.path.starts_with(&format!("{section}.")), "{}", f.path),
            }
        }
    }

    #[test]
    fn every_f64_row_rejects_non_finite_values() {
        for f in FIELDS.iter().filter(|f| f.ty == "f64") {
            for value in ["inf", "-inf", "NaN"] {
                let mut s = Scenario::paper_defaults();
                s.set(f.path, value).unwrap();
                let expected = format!("{} must be {}", f.path, f.validation);
                assert_eq!(
                    s.validate(),
                    Err(ScenarioError::Invalid(expected)),
                    "{} = {value}",
                    f.path
                );
            }
        }
    }
}
