//! The durable delivery-log sink (DESIGN.md §12).
//!
//! A [`DeliveryLog`] receives exactly what the Action spine hands the
//! application — ordered deliveries and installed membership views — at the
//! moment they are emitted. It is one of the three readers of the shell's
//! instrumentation tap (DESIGN.md §9), beside observations and telemetry:
//! absent by default, fed from the `Delivered` and `ViewInstalled` events,
//! and nothing a log implementation does can feed back into the protocol —
//! the trait has no outputs. The golden trace-hash tests pin that wire
//! traffic is bit-identical with the log attached and detached.
//!
//! The on-disk implementation lives in `ftmp-store` (which depends on this
//! crate, not the other way around); anything implementing the two hooks —
//! a file log, a test counter — can ride the same seam.
//!
//! A third method, [`flush`](DeliveryLog::flush), marks the turn boundary:
//! the shell calls it whenever the host takes the accumulated actions
//! (`Processor::drain_actions*`), so a log that buffers between hooks can
//! write once per engine turn and still promise that *no host is ever
//! handed a delivery the log has not handed on*.

use crate::actions::Delivery;
use crate::ids::{GroupId, ProcessorId, Timestamp};

/// Sink for the events a restarted member needs to reconstruct its
/// delivery history: every ordered delivery and every installed view.
///
/// The `Send` bound exists for the real-socket runtime, which constructs a
/// `Processor` (log attached) on the control thread and moves it into the
/// event-loop thread; the log itself is only ever driven from one thread at
/// a time.
pub trait DeliveryLog: Send {
    /// An ordered message was delivered to the application.
    fn on_delivery(&mut self, d: &Delivery);

    /// A membership view was installed locally (including a joiner's own
    /// first view at join commit).
    fn on_view_change(&mut self, group: GroupId, members: &[ProcessorId], ts: Timestamp);

    /// The host is taking this turn's actions: everything the two hooks
    /// were given so far must be handed on (to the OS, for a file log)
    /// before this returns. The default suits a log that buffers nothing.
    fn flush(&mut self) {}
}
