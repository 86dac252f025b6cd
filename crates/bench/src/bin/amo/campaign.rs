//! `amo tables` and `amo campaign`: regenerate paper artefacts or run a
//! declarative spec file. `tables` is `campaign` with the cache off and
//! the artefacts picked on the command line; both go through
//! [`execute`].

use crate::{cache, emit, read, write, Stop};
use amo_bench::cli::{Args, Command};
use amo_bench::timed;
use amo_campaign::{
    artifacts, render, ArtifactProfile, Campaign, CampaignPlan, CampaignSpec, ResultCache,
};
use amo_obs::{campaign_metrics_json, CampaignSummary};

pub(crate) const TABLES: Command = Command {
    name: "tables",
    synopsis: "[ARTEFACT...] [--quick] [--csv]",
    about: "Regenerate the paper's tables and figures, simulating every cell.
        ARTEFACT: all (the default), table2, figure5, table3, figure6, table4,
        figure7, ext-locks, ext-barriers, ext-ktree, ext-app, ext-cs,
        ext-signal, ext-selfsched, figure1. --quick: smoke sizes; --csv: every
        artefact as `table,row,column,value`, one line per cell.",
};

pub(crate) const CAMPAIGN: Command = Command {
    name: "campaign",
    synopsis: "[paper|quick] [--spec FILE] [--out FILE] [--csv] [--no-cache]
        [--cache-dir DIR] [--metrics-json FILE]",
    about: "Run an artefact profile (default paper, which regenerates
        tables_output.txt) or an amo-campaign-v1 --spec through the
        content-addressed result cache (default target/campaign-cache): an
        immediate re-run simulates nothing and renders the same bytes.
        --out: write the document to FILE, not stdout; --metrics-json: the
        campaign's aggregate amo-metrics-v1 report.",
};

pub(crate) fn tables(args: &Args) -> Result<i32, Stop> {
    artifacts::check_artifact_names(&args.errors)?;
    let profile = if args.has("quick") {
        ArtifactProfile::quick()
    } else {
        ArtifactProfile::paper()
    };
    let plan = CampaignPlan::Artifacts {
        artifacts: args.errors.clone(),
        profile,
    };
    execute("tables", &plan, None, args)
}

pub(crate) fn campaign(args: &Args) -> Result<i32, Stop> {
    let (name, plan) = match (args.get("spec"), args.errors.first()) {
        (Some(_), Some(profile)) => {
            return Err(Stop::Usage(format!(
                "unexpected argument '{profile}': --spec already says what to run"
            )))
        }
        (Some(path), None) => {
            let spec = CampaignSpec::parse(&read(path)?)
                .map_err(|e| Stop::Failed(format!("{path}: {e}")))?;
            (spec.name, spec.plan)
        }
        (None, profile) => {
            let name = profile.map_or("paper", String::as_str);
            let plan = CampaignPlan::Artifacts {
                artifacts: Vec::new(),
                profile: ArtifactProfile::named(name)?,
            };
            (name.to_string(), plan)
        }
    };
    execute(&name, &plan, cache(args), args)
}

/// Run `plan` through a campaign over `cache`, emit the rendered
/// document, and report the scheduling counters. Status 1 if any cell
/// failed.
fn execute(
    name: &str,
    plan: &CampaignPlan,
    cache: Option<ResultCache>,
    args: &Args,
) -> Result<i32, Stop> {
    let mut campaign = Campaign::new(cache);
    let (doc, secs) = timed(|| match plan {
        CampaignPlan::Artifacts {
            artifacts: names,
            profile,
        } => {
            let want = |n: &str| names.is_empty() || names.iter().any(|w| w == n || w == "all");
            artifacts::render_artifacts(&mut campaign, profile, &want, args.has("csv"))
        }
        CampaignPlan::Grid(runs) => {
            let specs: Vec<_> = runs.iter().map(|r| r.spec.clone()).collect();
            let outcomes = campaign.run(&specs);
            render::render_grid(runs, &outcomes)
        }
    });
    emit(args.get("out"), &doc)?;

    let c = campaign.counters;
    if let Some(path) = args.get("metrics-json") {
        let summary = CampaignSummary {
            runs: c.requested,
            unique: c.unique,
            cache_hits: c.cache_hits,
            cache_misses: c.cache_misses,
            errors: c.errors,
        };
        let meta = [("campaign", name.to_string())];
        write(
            path,
            &campaign_metrics_json(&summary, &campaign.aggregate, &meta),
        )?;
        eprintln!("wrote {path}");
    }
    eprintln!(
        "campaign '{name}': {} runs ({} unique), cache: {} hits, {} misses, {} errors (in {secs:.1}s)",
        c.requested, c.unique, c.cache_hits, c.cache_misses, c.errors
    );
    Ok((c.errors > 0) as i32)
}
