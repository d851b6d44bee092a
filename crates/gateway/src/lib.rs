//! The Potemkin gateway router.
//!
//! The gateway is the honeyfarm's only connection to the outside world and
//! the component that resolves the paper's scalability/containment tension:
//!
//! * **Inbound**, it receives traffic for entire telescope prefixes (over
//!   GRE tunnels), and performs **late binding**: the first packet for an
//!   address triggers a flash clone, and the address is bound to that VM
//!   until the VM is recycled ([`binding`]).
//! * **Outbound**, every packet a honeypot emits is classified against the
//!   **containment policy** ([`policy`]): replies to the original attacker
//!   flow out for fidelity, DNS is answered by a controlled resolver
//!   (`dnsgw`), and everything else is — depending on the configured mode
//!   — allowed (unsafe baseline), dropped (safe but fidelity-destroying
//!   baseline), or **reflected** back into the farm, so that a captured worm
//!   propagates among honeypots instead of attacking third parties.
//!
//! The gateway is deliberately a *pure decision engine*: it owns flow and
//! binding state but not VMs. Every packet produces a [`GatewayAction`] that
//! the controller (`potemkin-core`) executes. That keeps the policy logic
//! synchronously testable and mirrors the paper's separation between the
//! gateway router and the VMM servers.

#![warn(unreachable_pub)]

pub mod binding;
mod config;
mod dnsgw;
mod error;
pub mod flowtable;
pub mod gateway;
pub mod policy;
pub mod reclaim;
pub mod tunnel;

pub use binding::{AddressBinder, BindGranularity, VmRef};
pub use config::ConfigError;
pub use dnsgw::DnsProxy;
pub use error::GatewayError;
pub use flowtable::FlowTable;
pub use gateway::{Gateway, GatewayAction, GatewayConfig};
pub use policy::DropReason;
