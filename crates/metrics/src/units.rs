//! Physical units for schema entries and report axes.

/// Unit of a measured quantity.
///
/// TACC_Stats' self-describing format annotates every schema key with its
/// unit (e.g. `U=KB`); reports convert to human scales at render time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Unit {
    /// Dimensionless count (events, packets, processes...).
    Count,
    /// CPU scheduler ticks (centiseconds on the simulated kernel).
    Jiffies,
    /// Bytes.
    Bytes,
    /// Kibibytes (the unit /proc/meminfo and Lustre stats use).
    Kibibytes,
    /// Floating point operations.
    Flops,
    /// Seconds.
    Seconds,
    /// Fraction in `[0, 1]`.
    Fraction,
}

impl Unit {
    /// Short tag written into schema headers (`U=...`).
    pub fn tag(self) -> &'static str {
        match self {
            Unit::Count => "C",
            Unit::Jiffies => "J",
            Unit::Bytes => "B",
            Unit::Kibibytes => "KB",
            Unit::Flops => "F",
            Unit::Seconds => "s",
            Unit::Fraction => "fr",
        }
    }

    pub fn parse_tag(s: &str) -> Option<Unit> {
        Some(match s {
            "C" => Unit::Count,
            "J" => Unit::Jiffies,
            "B" => Unit::Bytes,
            "KB" => Unit::Kibibytes,
            "F" => Unit::Flops,
            "s" => Unit::Seconds,
            "fr" => Unit::Fraction,
            _ => return None,
        })
    }

    /// Multiplier converting a value in this unit to base SI-ish units
    /// (bytes for sizes, seconds for times, 1.0 otherwise).
    pub fn to_base(self) -> f64 {
        match self {
            Unit::Kibibytes => 1024.0,
            Unit::Jiffies => 0.01,
            _ => 1.0,
        }
    }
}

/// Convenience byte-scale constants used throughout the reports.
pub mod scale {
    pub const KB: f64 = 1024.0;
    pub const MB: f64 = 1024.0 * 1024.0;
    pub const GB: f64 = 1024.0 * 1024.0 * 1024.0;
    pub const GIGA: f64 = 1e9;
    pub const TERA: f64 = 1e12;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_round_trip() {
        for u in [
            Unit::Count,
            Unit::Jiffies,
            Unit::Bytes,
            Unit::Kibibytes,
            Unit::Flops,
            Unit::Seconds,
            Unit::Fraction,
        ] {
            assert_eq!(Unit::parse_tag(u.tag()), Some(u));
        }
        assert_eq!(Unit::parse_tag("nope"), None);
    }

    #[test]
    fn base_conversions() {
        assert_eq!(Unit::Kibibytes.to_base(), 1024.0);
        assert_eq!(Unit::Jiffies.to_base(), 0.01);
        assert_eq!(Unit::Bytes.to_base(), 1.0);
    }
}
