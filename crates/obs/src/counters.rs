//! One declaration per counter block.
//!
//! A counter block is a plain struct of `u64` fields that runs merge into
//! one another (`ExecStats`, `ForkStats`, `PruneStats`, `GcStats`,
//! [`SiteStats`](crate::SiteStats)). [`counter_block!`](crate::counter_block)
//! declares one: each field carries its doc comment, its merge rule and its
//! one metric name, and the macro generates the struct, field-wise
//! `absorb`/`minus`, and the `counters()` walk every reader goes through.
//! Adding a counter is one line in its block's declaration.

/// Declares a counter block: a `pub struct` of `u64` fields deriving
/// `Debug, Default, Clone, Copy, PartialEq, Eq`, plus
///
/// - `absorb(&mut self, other)`: merges field by field;
/// - `minus(&self, earlier)`: the field-wise difference `self - earlier`,
///   for attributing the work a run did after an earlier reading of the
///   same block (panics in debug builds if a counter went down);
/// - `from_metric(metric, value)`: the block with one field, looked up by
///   metric name, set to `value`;
/// - `counters(&self)`: every field as `(field name, metric name, value)`
///   in declaration order.
///
/// Each field names its merge rule: `sum` for counters (absorb adds, minus
/// subtracts) or `max` for gauges (absorb keeps the larger reading, minus
/// keeps `self`'s: a gauge is a reading, not an accumulation).
///
/// ```
/// obs::counter_block! {
///     /// Example block.
///     pub struct Demo {
///         /// Things done.
///         done: sum "demo.done",
///         /// Largest backlog seen.
///         backlog_peak: max "demo.backlog_peak",
///     }
/// }
/// let mut a = Demo { done: 2, backlog_peak: 5 };
/// a.absorb(&Demo { done: 3, backlog_peak: 4 });
/// assert_eq!(a, Demo { done: 5, backlog_peak: 5 });
/// let names: Vec<_> = a.counters().into_iter().map(|c| c.1).collect();
/// assert_eq!(names, ["demo.done", "demo.backlog_peak"]);
/// ```
#[macro_export]
macro_rules! counter_block {
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $(
                $(#[$fmeta:meta])*
                $field:ident: $rule:ident $metric:literal,
            )*
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
        pub struct $name {
            $(
                $(#[$fmeta])*
                pub $field: u64,
            )*
        }

        impl $name {
            /// Merges `other` into `self`, field by field: counters add,
            /// gauges keep the maximum.
            pub fn absorb(&mut self, other: &$name) {
                $( $crate::__counter_merge!($rule, self.$field, other.$field); )*
            }

            /// Field-wise difference `self - earlier`: counters subtract,
            /// gauges keep `self`'s reading. Counters are monotone over a
            /// run, so a later reading always dominates an earlier one.
            pub fn minus(&self, earlier: &$name) -> $name {
                $name {
                    $( $field: $crate::__counter_minus!($rule, self.$field, earlier.$field), )*
                }
            }

            /// The block with only the field named `metric` set to
            /// `value`; `None` when no field has that metric name.
            pub fn from_metric(metric: &str, value: u64) -> Option<$name> {
                let mut block = $name::default();
                match metric {
                    $( $metric => block.$field = value, )*
                    _ => return None,
                }
                Some(block)
            }

            /// Every field as `(field name, metric name, value)`, in
            /// declaration order.
            #[inline]
            pub fn counters(
                &self,
            ) -> impl IntoIterator<Item = (&'static str, &'static str, u64)> {
                [$( (stringify!($field), $metric, self.$field) ),*]
            }
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __counter_merge {
    (sum, $a:expr, $b:expr) => {
        $a += $b
    };
    (max, $a:expr, $b:expr) => {
        $a = ::core::cmp::max($a, $b)
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __counter_minus {
    (sum, $a:expr, $b:expr) => {
        $a - $b
    };
    (max, $a:expr, $b:expr) => {
        $a
    };
}
