//! Re-export of the workspace's shared minimal JSON parser.
//!
//! The parser itself lives in `potemkin-json` so the trace exporters here
//! and the scenario DSL loader in `potemkin-services` share one
//! implementation. Existing `potemkin_obs::json::JsonValue` paths keep
//! working through this shim.

pub(crate) use potemkin_json::escape;
pub use potemkin_json::JsonValue;
