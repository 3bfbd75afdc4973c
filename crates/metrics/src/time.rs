//! Simulation time.
//!
//! The tool chain samples every node on a fixed cadence (ten minutes in the
//! paper's deployment). Everything downstream — persistence offsets, system
//! time series bins, job durations — is expressed in these types, so we keep
//! them small, `Copy`, and arithmetic-friendly.

/// Seconds since the simulation epoch (the moment the cluster "boots").
///
/// Real TACC_Stats stamps records with Unix time; a simulation epoch plays
/// the same role without pretending to be wall-clock time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Timestamp(pub u64);

/// A span of simulated time, in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(pub u64);

impl Timestamp {
    pub const EPOCH: Timestamp = Timestamp(0);

    pub fn seconds(self) -> u64 {
        self.0
    }

    pub fn minutes(self) -> f64 {
        self.0 as f64 / 60.0
    }

    pub fn hours(self) -> f64 {
        self.0 as f64 / 3600.0
    }

    /// Day index since the epoch; used for per-host per-day file rotation.
    pub fn day(self) -> u64 {
        self.0 / 86_400
    }

    /// Elapsed time since `earlier`; saturates at zero rather than wrapping.
    pub fn since(self, earlier: Timestamp) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }
}

impl Duration {
    pub const ZERO: Duration = Duration(0);

    pub fn from_secs(s: u64) -> Duration {
        Duration(s)
    }

    pub fn from_minutes(m: u64) -> Duration {
        Duration(m * 60)
    }

    pub fn from_hours(h: u64) -> Duration {
        Duration(h * 3600)
    }

    pub fn from_days(d: u64) -> Duration {
        Duration(d * 86_400)
    }

    pub fn seconds(self) -> u64 {
        self.0
    }

    pub fn minutes(self) -> f64 {
        self.0 as f64 / 60.0
    }

    pub fn hours(self) -> f64 {
        self.0 as f64 / 3600.0
    }
}

impl std::ops::Add<Duration> for Timestamp {
    type Output = Timestamp;
    fn add(self, d: Duration) -> Timestamp {
        Timestamp(self.0 + d.0)
    }
}

impl std::ops::Sub<Duration> for Timestamp {
    type Output = Timestamp;
    fn sub(self, d: Duration) -> Timestamp {
        Timestamp(self.0.saturating_sub(d.0))
    }
}

impl std::ops::Add for Duration {
    type Output = Duration;
    fn add(self, o: Duration) -> Duration {
        Duration(self.0 + o.0)
    }
}

impl std::ops::Sub for Duration {
    type Output = Duration;
    fn sub(self, o: Duration) -> Duration {
        Duration(self.0.saturating_sub(o.0))
    }
}

impl std::ops::Mul<u64> for Duration {
    type Output = Duration;
    fn mul(self, k: u64) -> Duration {
        Duration(self.0 * k)
    }
}

impl std::fmt::Display for Timestamp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::fmt::Display for Duration {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}s", self.0)
    }
}

/// The collector's sampling cadence.
///
/// The paper's deployment samples every ten minutes; analyses exclude jobs
/// shorter than one interval, because such jobs never receive a periodic
/// sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampleInterval(pub Duration);

impl SampleInterval {
    /// The paper's production cadence: ten minutes.
    pub const TEN_MINUTES: SampleInterval = SampleInterval(Duration(600));

    pub fn duration(self) -> Duration {
        self.0
    }

    pub fn seconds(self) -> u64 {
        self.0 .0
    }

    /// Sample instants covering `[start, end)`, aligned to the interval.
    pub fn ticks(self, start: Timestamp, end: Timestamp) -> impl Iterator<Item = Timestamp> {
        let step = self.0 .0.max(1);
        let first = start.0.div_ceil(step) * step;
        (first..end.0).step_by(step as usize).map(Timestamp)
    }
}

impl Default for SampleInterval {
    fn default() -> Self {
        SampleInterval::TEN_MINUTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timestamp_arithmetic_round_trips() {
        let t = Timestamp(1000) + Duration::from_minutes(10);
        assert_eq!(t, Timestamp(1600));
        assert_eq!(t.since(Timestamp(1000)), Duration(600));
        assert_eq!((t - Duration(600)), Timestamp(1000));
    }

    #[test]
    fn since_saturates_instead_of_wrapping() {
        assert_eq!(Timestamp(5).since(Timestamp(10)), Duration::ZERO);
        assert_eq!(Timestamp(5) - Duration(10), Timestamp(0));
    }

    #[test]
    fn day_index_rotates_at_midnight() {
        assert_eq!(Timestamp(0).day(), 0);
        assert_eq!(Timestamp(86_399).day(), 0);
        assert_eq!(Timestamp(86_400).day(), 1);
    }

    #[test]
    fn ticks_align_to_interval() {
        let iv = SampleInterval(Duration(600));
        let ticks: Vec<_> = iv.ticks(Timestamp(100), Timestamp(1900)).collect();
        assert_eq!(ticks, vec![Timestamp(600), Timestamp(1200), Timestamp(1800)]);
    }

    #[test]
    fn ticks_empty_when_window_too_short() {
        let iv = SampleInterval::TEN_MINUTES;
        assert_eq!(iv.ticks(Timestamp(601), Timestamp(1199)).count(), 0);
    }

    #[test]
    fn unit_conversions() {
        assert_eq!(Duration::from_hours(2).minutes(), 120.0);
        assert_eq!(Duration::from_days(1).hours(), 24.0);
        assert_eq!(Timestamp(7200).hours(), 2.0);
    }
}
