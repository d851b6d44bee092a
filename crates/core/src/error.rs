//! Controller-level errors and the workspace-wide [`Error`] umbrella.

use core::fmt;

use potemkin_gateway::ConfigError;
use potemkin_net::NetError;
use potemkin_vmm::VmmError;

/// Errors from farm construction and operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FarmError {
    /// A VMM operation failed.
    Vmm(VmmError),
    /// A config value was rejected; the error names its struct and field.
    Config(ConfigError),
    /// The configuration is invalid in a way no single field explains.
    BadConfig {
        /// What is wrong.
        what: &'static str,
    },
    /// No server could supply a VM (farm full or all hosts down).
    NoCapacity,
    /// A whole-farm snapshot failed integrity validation or could not be
    /// written/read.
    Snapshot(potemkin_snapshot::SnapshotError),
}

impl fmt::Display for FarmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FarmError::Vmm(e) => write!(f, "vmm: {e}"),
            FarmError::Config(e) => write!(f, "bad config: {e}"),
            FarmError::BadConfig { what } => write!(f, "bad config: {what}"),
            FarmError::NoCapacity => write!(f, "no server has capacity"),
            FarmError::Snapshot(e) => write!(f, "snapshot: {e}"),
        }
    }
}

impl std::error::Error for FarmError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FarmError::Vmm(e) => Some(e),
            FarmError::Snapshot(e) => Some(e),
            FarmError::Config(e) => Some(e),
            FarmError::BadConfig { .. } | FarmError::NoCapacity => None,
        }
    }
}

impl From<VmmError> for FarmError {
    fn from(e: VmmError) -> Self {
        FarmError::Vmm(e)
    }
}

impl From<ConfigError> for FarmError {
    fn from(e: ConfigError) -> Self {
        FarmError::Config(e)
    }
}

impl From<potemkin_snapshot::SnapshotError> for FarmError {
    fn from(e: potemkin_snapshot::SnapshotError) -> Self {
        FarmError::Snapshot(e)
    }
}

/// The workspace-wide error: one type that any crate's failure converts
/// into, so binaries and examples handle a single `Result` instead of
/// matching per-crate enums. Every variant chains its cause through
/// [`std::error::Error::source`].
#[derive(Debug)]
#[non_exhaustive]
pub enum Error {
    /// A VMM operation failed.
    Vmm(VmmError),
    /// A farm operation failed.
    Farm(FarmError),
    /// A packet/addressing operation failed.
    Net(NetError),
    /// A configuration builder rejected its input.
    Config(ConfigError),
    /// An I/O operation (artifact write, file read) failed.
    Io(std::io::Error),
    /// Command-line arguments were invalid.
    Cli(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Vmm(e) => write!(f, "vmm: {e}"),
            Error::Farm(e) => write!(f, "farm: {e}"),
            Error::Net(e) => write!(f, "net: {e}"),
            Error::Config(e) => write!(f, "config: {e}"),
            Error::Io(e) => write!(f, "io: {e}"),
            Error::Cli(msg) => write!(f, "cli: {msg}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Vmm(e) => Some(e),
            Error::Farm(e) => Some(e),
            Error::Net(e) => Some(e),
            Error::Config(e) => Some(e),
            Error::Io(e) => Some(e),
            Error::Cli(_) => None,
        }
    }
}

impl From<VmmError> for Error {
    fn from(e: VmmError) -> Self {
        Error::Vmm(e)
    }
}

impl From<FarmError> for Error {
    fn from(e: FarmError) -> Self {
        Error::Farm(e)
    }
}

impl From<NetError> for Error {
    fn from(e: NetError) -> Self {
        Error::Net(e)
    }
}

impl From<ConfigError> for Error {
    fn from(e: ConfigError) -> Self {
        Error::Config(e)
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e)
    }
}

impl From<String> for Error {
    fn from(msg: String) -> Self {
        Error::Cli(msg)
    }
}

impl From<potemkin_snapshot::SnapshotError> for Error {
    fn from(e: potemkin_snapshot::SnapshotError) -> Self {
        Error::Farm(FarmError::Snapshot(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use potemkin_vmm::DomainId;

    #[test]
    fn display_and_source() {
        use std::error::Error;
        let e = FarmError::from(VmmError::NoSuchDomain(DomainId(3)));
        assert!(e.to_string().contains("dom3"));
        assert!(e.source().is_some());
        let c = FarmError::BadConfig { what: "no servers" };
        assert_eq!(c.to_string(), "bad config: no servers");
        assert!(c.source().is_none());
        let f = FarmError::from(ConfigError::new("FarmConfig", "servers", "must be > 0"));
        assert_eq!(f.to_string(), "bad config: FarmConfig.servers: must be > 0");
        assert!(f.source().is_some());
        let n = FarmError::NoCapacity;
        assert_eq!(n.to_string(), "no server has capacity");
        assert!(n.source().is_none());
    }

    #[test]
    fn umbrella_chains_sources() {
        use std::error::Error as _;
        let e = Error::from(FarmError::from(VmmError::NoSuchDomain(DomainId(3))));
        assert!(e.to_string().starts_with("farm:"));
        // farm -> vmm: two links down the chain.
        let farm_src = e.source().expect("farm source");
        assert!(farm_src.source().is_some(), "vmm cause is chained");
        let c = Error::from(ConfigError::new("FarmConfig", "servers", "must be > 0"));
        assert_eq!(c.to_string(), "config: FarmConfig.servers: must be > 0");
        assert!(c.source().is_some());
        let cli = Error::from(String::from("unknown flag"));
        assert_eq!(cli.to_string(), "cli: unknown flag");
        assert!(cli.source().is_none());
        let io = Error::from(std::io::Error::new(std::io::ErrorKind::NotFound, "gone"));
        assert!(io.to_string().starts_with("io:"));
        assert!(io.source().is_some());
    }
}
