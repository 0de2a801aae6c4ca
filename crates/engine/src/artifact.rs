//! Artifact rendering shared by the CLI and the server.
//!
//! Both front-ends must emit byte-identical artifacts for the same
//! (experiment × scenario-point) job — the serve-smoke CI job diffs daemon
//! output against a one-shot `repro --sweep` run file-for-file — so the
//! rendering lives here, once. The JSON form is streamed straight into
//! the output buffer through [`WriteJson`]; the server streams the same
//! bytes into its response envelope, and a client that parses the envelope
//! and re-renders the artifact reproduces them exactly, because parsing is
//! round-trip stable on the stream's output. [`artifact_json`] and the
//! other `*_json` trees are derived from the streams for callers that want
//! a value.

use cc_core::experiments::Entry;
use cc_report::json::{self, write_array, write_object, write_str};
use cc_report::{
    Comparison, Experiment, ExperimentOutput, JsonValue, McComparison, MonteCarloMatrix,
    RunContext, ScenarioMatrix, ScenarioPoint, WriteJson,
};

/// Output format for artifacts and comparison reports.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Format {
    /// ASCII tables and charts (default).
    Text,
    /// Markdown sections.
    Markdown,
    /// CSV with `#` comment headers.
    Csv,
    /// One JSON document per artifact.
    Json,
}

impl Format {
    /// File extension for `--out` artifact files.
    #[must_use]
    pub fn extension(self) -> &'static str {
        match self {
            Self::Text => "txt",
            Self::Markdown => "md",
            Self::Csv => "csv",
            Self::Json => "json",
        }
    }
}

/// The JSON artifact for one (experiment × scenario-point) job:
/// experiment identity and tags, the sweep-point metadata when sweeping,
/// the full scenario, and the experiment output.
pub(crate) struct Artifact<'a> {
    /// The registry entry (key and tags).
    pub(crate) entry: &'a Entry,
    /// The experiment (title and description).
    pub(crate) experiment: &'a dyn Experiment,
    /// The computed output.
    pub(crate) output: &'a ExperimentOutput,
    /// The context the output belongs to (the scenario member).
    pub(crate) ctx: &'a RunContext,
    /// The sweep point, when sweeping.
    pub(crate) point: Option<&'a ScenarioPoint>,
}

impl WriteJson for Artifact<'_> {
    fn write_json(&self, out: &mut String) {
        write_object(out, |o| {
            o.field("key", self.entry.key)
                .field("title", &self.experiment.id().to_string())
                .field("description", self.experiment.description());
            write_array(o.key("tags"), self.entry.tags, |out, tag| {
                write_str(out, tag.name());
            });
            if let Some(point) = self.point {
                o.field("point", point);
            }
            self.ctx.write_scenario_json(o.key("scenario"));
            o.field("output", self.output);
        });
    }
}

/// The JSON artifact for one (experiment × scenario-point) job as a tree,
/// derived from its stream.
#[must_use]
pub fn artifact_json(
    entry: &Entry,
    experiment: &dyn Experiment,
    output: &ExperimentOutput,
    ctx: &RunContext,
    point: Option<&ScenarioPoint>,
) -> JsonValue {
    json::tree(&Artifact {
        entry,
        experiment,
        output,
        ctx,
        point,
    })
}

/// Renders one (experiment × scenario-point) artifact from an
/// already-computed output. Kept separate from the model run so the cache
/// can render a shared [`ExperimentOutput`] once per point, with each
/// point's own scenario/point metadata.
#[must_use]
pub fn render_artifact(
    entry: &Entry,
    experiment: &dyn Experiment,
    output: &ExperimentOutput,
    ctx: &RunContext,
    point: Option<&ScenarioPoint>,
    format: Format,
) -> String {
    match format {
        Format::Text => format!(
            "==============================================================\n\
             {} — {}\n\
             ==============================================================\n\
             {}",
            experiment.id(),
            experiment.description(),
            output.render()
        ),
        Format::Markdown => format!(
            "## {} — {}\n\n{}",
            experiment.id(),
            experiment.description(),
            output.render_markdown()
        ),
        Format::Csv => format!(
            "# {} — {}\n{}",
            experiment.id(),
            experiment.description(),
            output.render_csv()
        ),
        Format::Json => json::render(&Artifact {
            entry,
            experiment,
            output,
            ctx,
            point,
        }),
    }
}

/// The cross-scenario comparison report as JSON: the sweep specs, point
/// count, and every comparison.
struct ComparisonReport<'a> {
    comparisons: &'a [Comparison],
    matrix: &'a ScenarioMatrix,
}

impl WriteJson for ComparisonReport<'_> {
    fn write_json(&self, out: &mut String) {
        write_object(out, |o| {
            write_array(o.key("sweep"), self.matrix.specs(), |out, spec| {
                write_object(out, |s| {
                    s.field("path", &spec.path).field("values", &spec.values);
                });
            });
            o.field("points", &self.matrix.len())
                .field("comparisons", self.comparisons);
        });
    }
}

/// The cross-scenario comparison report as a tree, derived from its stream.
#[must_use]
pub fn comparison_json(comparisons: &[Comparison], matrix: &ScenarioMatrix) -> JsonValue {
    json::tree(&ComparisonReport {
        comparisons,
        matrix,
    })
}

/// Renders the cross-scenario comparison report in the selected format.
#[must_use]
pub fn render_comparisons(
    comparisons: &[Comparison],
    matrix: &ScenarioMatrix,
    format: Format,
) -> String {
    match format {
        Format::Json => json::render(&ComparisonReport {
            comparisons,
            matrix,
        }),
        Format::Markdown => {
            let mut out = String::from("# Cross-scenario comparison\n");
            for c in comparisons {
                out.push_str(&format!(
                    "\n## {} — {} ({})\n\n{}",
                    c.experiment,
                    c.metric,
                    c.unit,
                    c.to_table().to_markdown()
                ));
                if let Some(s) = c.summary() {
                    out.push_str(&format!(
                        "\nspread: min {:.4}, max {:.4}, mean {:.4}{}\n",
                        s.min,
                        s.max,
                        s.mean,
                        s.spread_ratio()
                            .map_or(String::new(), |r| format!(", {r:.2}x min..max")),
                    ));
                }
                for crossing in c.crossings() {
                    out.push_str(&format!("\ncrossing: {}\n", crossing.line));
                }
            }
            out
        }
        Format::Csv => {
            let mut out = String::new();
            for c in comparisons {
                out.push_str(&format!(
                    "# comparison: {} — {} ({})\n{}",
                    c.experiment,
                    c.metric,
                    c.unit,
                    c.to_table().to_csv()
                ));
                for crossing in c.crossings() {
                    out.push_str(&format!("# crossing: {}\n", crossing.line));
                }
            }
            out
        }
        Format::Text => {
            let mut out = format!(
                "==============================================================\n\
                 Cross-scenario comparison — {} sweep point(s)\n\
                 ==============================================================\n",
                matrix.len()
            );
            for c in comparisons {
                out.push_str(&format!(
                    "\n{} — {} ({})\n{}",
                    c.experiment,
                    c.metric,
                    c.unit,
                    c.to_table().render()
                ));
                if let Some(s) = c.summary() {
                    out.push_str(&format!(
                        "spread: min {:.4}, max {:.4}, mean {:.4}{}\n",
                        s.min,
                        s.max,
                        s.mean,
                        s.spread_ratio()
                            .map_or(String::new(), |r| format!(" ({r:.2}x min..max)")),
                    ));
                }
                for crossing in c.crossings() {
                    out.push_str(&format!("crossing: {}\n", crossing.line));
                }
            }
            out
        }
    }
}

/// The Monte-Carlo comparison report as JSON: the sampling parameters
/// (`samples`, `seed`, `dists`) and one banded digest per (experiment,
/// tracked metric).
struct McReport<'a> {
    comparisons: &'a [McComparison],
    matrix: &'a MonteCarloMatrix,
}

impl WriteJson for McReport<'_> {
    fn write_json(&self, out: &mut String) {
        write_object(out, |o| {
            o.field("mc", self.matrix)
                .field("comparisons", self.comparisons);
        });
    }
}

/// The Monte-Carlo comparison report as a tree, derived from its stream.
#[must_use]
pub fn mc_comparison_json(comparisons: &[McComparison], matrix: &MonteCarloMatrix) -> JsonValue {
    json::tree(&McReport {
        comparisons,
        matrix,
    })
}

/// Renders the Monte-Carlo comparison report in the selected format: the
/// sampling parameters, then each metric's confidence-banded headline and
/// digest table.
#[must_use]
pub fn render_mc_comparisons(
    comparisons: &[McComparison],
    matrix: &MonteCarloMatrix,
    format: Format,
) -> String {
    let sampled = |prefix: &str| {
        matrix
            .bindings()
            .iter()
            .map(|b| format!("{prefix}sampled: {}\n", b.display()))
            .collect::<String>()
    };
    match format {
        Format::Json => json::render(&McReport {
            comparisons,
            matrix,
        }),
        Format::Markdown => {
            let mut out = format!(
                "# Monte-Carlo comparison\n\n- samples: {}\n- seed: {}\n",
                matrix.len(),
                matrix.seed()
            );
            for binding in matrix.bindings() {
                out.push_str(&format!("- sampled: `{}`\n", binding.display()));
            }
            for c in comparisons {
                out.push_str(&format!(
                    "\n## {} — {} ({})\n\n{}\n\n{}",
                    c.experiment,
                    c.metric,
                    c.unit,
                    c.banded_line(),
                    c.to_table().to_markdown()
                ));
            }
            out
        }
        Format::Csv => {
            let mut out = format!(
                "# mc: samples={}, seed={}\n{}",
                matrix.len(),
                matrix.seed(),
                sampled("# ")
            );
            for c in comparisons {
                out.push_str(&format!(
                    "# comparison: {} — {} ({})\n# {}\n{}",
                    c.experiment,
                    c.metric,
                    c.unit,
                    c.banded_line(),
                    c.to_table().to_csv()
                ));
            }
            out
        }
        Format::Text => {
            let mut out = format!(
                "==============================================================\n\
                 Monte-Carlo comparison — {} samples, seed {}\n\
                 ==============================================================\n\
                 {}",
                matrix.len(),
                matrix.seed(),
                sampled("")
            );
            for c in comparisons {
                out.push_str(&format!("\n{}\n{}", c.banded_line(), c.to_table().render()));
            }
            out
        }
    }
}

/// Replaces filename-hostile characters in a sweep-point label.
#[must_use]
pub fn sanitize(label: &str) -> String {
    label
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '.' | '-' | '_') {
                c
            } else {
                '-'
            }
        })
        .collect()
}

/// The artifact filename for one job: `fig10@label.json` when sweeping,
/// `fig10.json` otherwise.
#[must_use]
pub fn artifact_file_name(key: &str, point: Option<&ScenarioPoint>, format: Format) -> String {
    match point {
        Some(point) => format!("{key}@{}.{}", sanitize(&point.label), format.extension()),
        None => format!("{key}.{}", format.extension()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn file_names_follow_the_cli_convention() {
        assert_eq!(
            artifact_file_name("fig10", None, Format::Json),
            "fig10.json"
        );
        assert_eq!(artifact_file_name("fig10", None, Format::Csv), "fig10.csv");
    }

    #[test]
    fn sanitize_keeps_filename_safe_characters() {
        assert_eq!(sanitize("grid.intensity=50"), "grid.intensity-50");
        assert_eq!(sanitize("a b/c"), "a-b-c");
    }

    #[test]
    fn mc_report_renders_in_every_format() {
        let matrix = MonteCarloMatrix::new(
            cc_report::Scenario::paper_defaults(),
            vec![cc_report::DistBinding::parse("fab.node_nm ~ triangular(5,7,10)").unwrap()],
            10_000,
            7,
        )
        .unwrap();
        let comparisons = vec![McComparison {
            experiment: "ext-facility".to_string(),
            metric: "cumulative-breakeven-year".to_string(),
            unit: "year".to_string(),
            threshold: None,
            stats: cc_analysis::stats::BandedSummary {
                n: 10_000,
                mean: 2014.6,
                stddev: 0.49,
                min: 2013.2,
                max: 2016.1,
                p05: 2013.8,
                p50: 2014.6,
                p95: 2015.4,
            },
        }];
        let text = render_mc_comparisons(&comparisons, &matrix, Format::Text);
        assert!(text.contains("Monte-Carlo comparison — 10000 samples, seed 7"));
        assert!(text.contains("sampled: fab.node_nm ~ triangular(5,7,10)"));
        assert!(text.contains("90% CI ±0.8 year"));
        let md = render_mc_comparisons(&comparisons, &matrix, Format::Markdown);
        assert!(md.contains("# Monte-Carlo comparison"));
        assert!(md.contains("- seed: 7"));
        let csv = render_mc_comparisons(&comparisons, &matrix, Format::Csv);
        assert!(csv.starts_with("# mc: samples=10000, seed=7\n"));
        let json = render_mc_comparisons(&comparisons, &matrix, Format::Json);
        let parsed = JsonValue::parse(&json).expect("valid JSON");
        assert_eq!(
            parsed
                .get("mc")
                .and_then(|m| m.get("seed"))
                .and_then(JsonValue::as_u64),
            Some(7)
        );
        assert!(json.contains(r#""p95":2015.4"#));
    }
}
