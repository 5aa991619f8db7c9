//! Runtime observability configuration.

use serde::{Deserialize, Serialize};

/// How much the pipeline records.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum ObsMode {
    /// Record nothing; every probe is a single-branch no-op.
    #[default]
    Off,
    /// Counters, histograms, and load profiles — no trace events.
    Metrics,
    /// Everything in [`ObsMode::Metrics`] plus the trace-event stream.
    Full,
}

/// Runtime configuration for the observability layer.
///
/// All recording is clocked on the deterministic big-round clock;
/// `wall_clock` additionally samples wall time into a side channel
/// (`wall_ns` event args and `wall.*` counters) that deterministic
/// artifacts never include.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ObsConfig {
    /// Recording tier.
    pub mode: ObsMode,
    /// Sample wall-clock durations (barrier waits, stage times) into the
    /// nondeterministic side channel. Off by default so exports are a pure
    /// function of the run.
    pub wall_clock: bool,
    /// Cap on recorded trace events per probe; further events are counted
    /// in `exec.events_dropped` instead of allocated.
    pub max_events: usize,
}

/// Default cap on trace events recorded by a single probe.
pub const DEFAULT_MAX_EVENTS: usize = 1 << 16;

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig::off()
    }
}

impl ObsConfig {
    /// Recording disabled entirely.
    pub fn off() -> Self {
        ObsConfig {
            mode: ObsMode::Off,
            wall_clock: false,
            max_events: DEFAULT_MAX_EVENTS,
        }
    }

    /// Counters, histograms, and load profiles only.
    pub fn metrics() -> Self {
        ObsConfig {
            mode: ObsMode::Metrics,
            ..ObsConfig::off()
        }
    }

    /// Full recording: metrics plus trace events.
    pub fn full() -> Self {
        ObsConfig {
            mode: ObsMode::Full,
            ..ObsConfig::off()
        }
    }

    /// Parses a mode name (`off` | `metrics` | `full`), as accepted by the
    /// CLI `--obs` flag.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "off" => Some(ObsConfig::off()),
            "metrics" => Some(ObsConfig::metrics()),
            "full" => Some(ObsConfig::full()),
            _ => None,
        }
    }

    /// Whether any recording happens: any mode other than
    /// [`ObsMode::Off`].
    #[inline]
    pub fn enabled(&self) -> bool {
        self.mode != ObsMode::Off
    }

    /// Whether trace events (not just metrics) are recorded.
    #[inline]
    pub fn events_enabled(&self) -> bool {
        self.mode == ObsMode::Full
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_cli_names() {
        assert_eq!(ObsConfig::parse("off").unwrap().mode, ObsMode::Off);
        assert_eq!(ObsConfig::parse("metrics").unwrap().mode, ObsMode::Metrics);
        assert_eq!(ObsConfig::parse("full").unwrap().mode, ObsMode::Full);
        assert!(ObsConfig::parse("verbose").is_none());
    }

    #[test]
    fn off_is_disabled() {
        assert!(!ObsConfig::off().enabled());
        assert!(!ObsConfig::off().events_enabled());
        assert!(ObsConfig::metrics().enabled());
        assert!(!ObsConfig::metrics().events_enabled());
        assert!(ObsConfig::full().events_enabled());
    }
}
