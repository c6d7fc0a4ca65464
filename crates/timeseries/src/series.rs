//! Hourly time series over a civil year.
//!
//! The unit of analysis in the paper's operational sections is "hourly data
//! (year 2021)" — a vector of 8760 values indexed by hour-of-year. This
//! module provides that container with the handful of operations the
//! analyses need: elementwise maps, summary reductions and hour-of-day
//! profiles in any time zone.

use crate::datetime::{hours_in_year, HourStamp, TimeZone};

/// One value per hour of a civil year.
#[derive(Debug, Clone, PartialEq)]
pub struct HourlySeries {
    year: i32,
    values: Vec<f64>,
}

impl HourlySeries {
    /// Creates a series for `year` from exactly `hours_in_year(year)` values.
    ///
    /// # Panics
    /// If the length does not match the year.
    pub fn new(year: i32, values: Vec<f64>) -> HourlySeries {
        assert_eq!(
            values.len(),
            hours_in_year(year) as usize,
            "series length must match hours in year {year}"
        );
        HourlySeries { year, values }
    }

    /// A series holding the same value at every hour.
    pub fn constant(year: i32, value: f64) -> HourlySeries {
        HourlySeries {
            year,
            values: vec![value; hours_in_year(year) as usize],
        }
    }

    /// Builds a series by evaluating `f` at every hour stamp of the year.
    pub fn from_fn(year: i32, mut f: impl FnMut(HourStamp) -> f64) -> HourlySeries {
        let n = hours_in_year(year);
        let values = (0..n)
            .map(|i| f(HourStamp::from_hour_of_year(year, i)))
            .collect();
        HourlySeries { year, values }
    }

    /// The civil year this series covers.
    pub fn year(&self) -> i32 {
        self.year
    }

    /// Number of hourly samples (8760 or 8784).
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when empty (cannot happen for a valid year; kept for API hygiene).
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Raw values slice.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Value at hour-of-year `index`.
    pub fn at(&self, index: u32) -> f64 {
        self.values[index as usize]
    }

    /// Value at a UTC hour stamp.
    ///
    /// # Panics
    /// If the stamp is outside this series' year.
    pub fn at_stamp(&self, stamp: HourStamp) -> f64 {
        assert_eq!(
            stamp.date().year(),
            self.year,
            "stamp {stamp} outside series year {}",
            self.year
        );
        self.at(stamp.hour_of_year())
    }

    /// Iterates `(stamp, value)` pairs in chronological order.
    pub fn iter(&self) -> impl Iterator<Item = (HourStamp, f64)> + '_ {
        self.values
            .iter()
            .enumerate()
            .map(move |(i, v)| (HourStamp::from_hour_of_year(self.year, i as u32), *v))
    }

    /// Elementwise transformation.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> HourlySeries {
        HourlySeries {
            year: self.year,
            values: self.values.iter().map(|v| f(*v)).collect(),
        }
    }

    /// Sum over all hours.
    pub fn total(&self) -> f64 {
        self.values.iter().sum()
    }

    /// Arithmetic mean over all hours.
    pub fn mean(&self) -> f64 {
        self.total() / self.values.len() as f64
    }

    /// Minimum value.
    pub fn min(&self) -> f64 {
        self.values.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Maximum value.
    pub fn max(&self) -> f64 {
        self.values
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Means grouped by local hour-of-day (24 buckets) in zone `tz`.
    pub fn hourly_profile(&self, tz: TimeZone) -> [f64; 24] {
        let mut sums = [0.0f64; 24];
        let mut counts = [0usize; 24];
        for (utc_stamp, v) in self.iter() {
            let h = tz.from_utc(utc_stamp).hour() as usize;
            sums[h] += v;
            counts[h] += 1;
        }
        let mut out = [0.0f64; 24];
        for h in 0..24 {
            out[h] = if counts[h] > 0 {
                sums[h] / counts[h] as f64
            } else {
                f64::NAN
            };
        }
        out
    }

    /// Scales every value by `k`.
    pub fn scale(&self, k: f64) -> HourlySeries {
        self.map(|v| v * k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_series_properties() {
        let s = HourlySeries::constant(2021, 5.0);
        assert_eq!(s.len(), 8760);
        assert_eq!(s.mean(), 5.0);
        assert_eq!(s.total(), 5.0 * 8760.0);
        assert_eq!(s.min(), 5.0);
        assert_eq!(s.max(), 5.0);
    }

    #[test]
    fn leap_year_length() {
        let s = HourlySeries::constant(2020, 1.0);
        assert_eq!(s.len(), 8784);
    }

    #[test]
    #[should_panic(expected = "length must match")]
    fn rejects_wrong_length() {
        let _ = HourlySeries::new(2021, vec![0.0; 100]);
    }

    #[test]
    fn from_fn_indexing() {
        let s = HourlySeries::from_fn(2021, |st| st.hour_of_year() as f64);
        assert_eq!(s.at(0), 0.0);
        assert_eq!(s.at(8759), 8759.0);
        let stamp = HourStamp::from_hour_of_year(2021, 1234);
        assert_eq!(s.at_stamp(stamp), 1234.0);
    }

    #[test]
    fn map_and_zip() {
        let a = HourlySeries::constant(2021, 2.0);
        let doubled = a.map(|x| x * 3.0);
        assert_eq!(doubled.at(100), 6.0);
    }

    #[test]
    fn hourly_profile_utc_identity() {
        // A series equal to its own UTC hour has profile [0,1,...,23].
        let s = HourlySeries::from_fn(2021, |st| st.hour() as f64);
        let prof = s.hourly_profile(TimeZone::UTC);
        for (h, v) in prof.iter().enumerate() {
            assert!((v - h as f64).abs() < 1e-12);
        }
    }

    #[test]
    fn hourly_profile_shifts_with_zone() {
        // Same series viewed from JST: local hour h corresponds to UTC
        // hour (h - 9) mod 24.
        let s = HourlySeries::from_fn(2021, |st| st.hour() as f64);
        let prof = s.hourly_profile(TimeZone::JST);
        for (h, v) in prof.iter().enumerate() {
            let expected = ((h as i32 - 9).rem_euclid(24)) as f64;
            assert!(
                (v - expected).abs() < 1e-9,
                "hour {h}: got {v}, expected {expected}"
            );
        }
    }

    #[test]
    fn scale_scales() {
        let s = HourlySeries::constant(2021, 3.0).scale(2.0);
        assert_eq!(s.mean(), 6.0);
    }
}
