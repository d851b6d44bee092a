//! Shared configuration-validation error for the typed config builders.
//!
//! Every `*Config` struct in the workspace exposes a `::builder()` whose
//! `build()` returns `Result<_, ConfigError>`. The error type lives here
//! (the lowest crate that defines config structs) and is re-exported by
//! `potemkin-core` and the umbrella crate so callers never import it from
//! two places.

/// A rejected configuration value, naming the struct and field.
///
/// # Examples
///
/// ```
/// use potemkin_gateway::ConfigError;
///
/// let err = ConfigError::new("GatewayConfig", "max_flows", "must be positive");
/// assert_eq!(err.field(), "max_flows");
/// assert_eq!(err.to_string(), "GatewayConfig.max_flows: must be positive");
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConfigError {
    config: &'static str,
    field: &'static str,
    reason: &'static str,
}

impl ConfigError {
    /// A validation failure for `field` of `config`.
    #[must_use]
    pub fn new(config: &'static str, field: &'static str, reason: &'static str) -> Self {
        ConfigError { config, field, reason }
    }

    /// The offending field.
    #[must_use]
    pub fn field(&self) -> &'static str {
        self.field
    }

    /// Why the value was rejected.
    #[must_use]
    pub fn reason(&self) -> &'static str {
        self.reason
    }
}

impl core::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}.{}: {}", self.config, self.field, self.reason)
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_struct_and_field() {
        let e = ConfigError::new("FarmConfig", "servers", "must be at least 1");
        assert_eq!(e.to_string(), "FarmConfig.servers: must be at least 1");
        assert_eq!(e.field(), "servers");
        assert_eq!(e.reason(), "must be at least 1");
    }

    #[test]
    fn is_std_error() {
        let e = ConfigError::new("PolicyConfig", "outbound_burst", "must be positive");
        let dyn_err: &dyn std::error::Error = &e;
        assert!(dyn_err.source().is_none());
    }
}
