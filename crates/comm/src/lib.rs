//! V2V communication substrate.
//!
//! Models the message channel of paper Section II-A: every `Δt_m` seconds a
//! vehicle broadcasts its exact state `(p, v, a)`. The channel may deliver the
//! message immediately ([`PerfectChannel`]), delay it by `Δt_d` and/or drop it
//! with probability `p_d` ([`DelayDropChannel`]), or drop everything
//! ([`LostChannel`], the "messages lost" setting where only sensors remain).
//!
//! The three experimental settings of Section V map onto [`CommSetting`]:
//!
//! | Paper setting        | `CommSetting`                            |
//! |----------------------|------------------------------------------|
//! | "no disturbance"     | [`CommSetting::NoDisturbance`]           |
//! | "messages delayed"   | [`CommSetting::Delayed`] (`Δt_d`, `p_d`) |
//! | "messages lost"      | [`CommSetting::Lost`]                    |
//!
//! # Example
//!
//! ```
//! use cv_comm::{Channel, CommSetting, Message};
//!
//! let mut ch = CommSetting::Delayed { delay: 0.25, drop_prob: 0.0 }.channel(42);
//! ch.send(Message::new(1, 0.0, 50.0, 10.0, 0.0), 0.0);
//! assert!(ch.receive(0.1).is_empty());          // still in flight
//! let delivered = ch.receive(0.25);             // arrives Δt_d later
//! assert_eq!(delivered.len(), 1);
//! assert_eq!(delivered[0].stamp, 0.0);
//! ```

mod channel;
mod message;
mod setting;

pub use channel::{Channel, DelayDropChannel, LostChannel, PerfectChannel};
pub use message::Message;
pub use setting::CommSetting;
