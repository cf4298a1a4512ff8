//! Offline stand-in for the `proptest` crate.
//!
//! Implements the subset this workspace uses: range strategies, tuple
//! strategies, `Just`, `prop_oneof!`, `prop::collection::vec`,
//! `any::<T>()`, `.prop_map`, the `proptest!` macro with
//! `#![proptest_config(...)]`, and `prop_assert!`/`prop_assert_eq!`.
//! Cases are generated deterministically (seeded per case index) and
//! there is **no shrinking** — a failure reports the offending inputs
//! via `Debug` instead.

#![forbid(unsafe_code)]

pub mod collection;
pub mod strategy;
pub mod test_runner;

/// Everything a test file needs via `use proptest::prelude::*`.
pub mod prelude {
    pub use crate as prop;
    pub use crate::strategy::{any, Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Runs one property: draws `cases` inputs and invokes the body.
/// Used by the `proptest!` expansion; not public API.
#[doc(hidden)]
pub fn run_property<S, F>(
    name: &str,
    config: &test_runner::ProptestConfig,
    strategy: S,
    mut body: F,
) where
    S: strategy::Strategy,
    F: FnMut(S::Value) -> Result<(), test_runner::TestCaseError>,
{
    for case in 0..config.cases {
        let mut runner = test_runner::TestRunner::deterministic(name, case);
        let input = strategy.new_value(&mut runner);
        let repr = format!("{input:?}");
        if let Err(e) = body(input) {
            panic!(
                "property `{name}` failed at case {case}/{}: {e}\n  input: {repr}",
                config.cases
            );
        }
    }
}

/// The property-test macro. Mirrors upstream syntax:
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]
///     #[test]
///     fn my_prop(x in 0u32..100, ys in prop::collection::vec(0f64..1.0, 0..10)) {
///         prop_assert!(x < 100);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@fns ($cfg) $($rest)*);
    };
    (@fns ($cfg:expr)) => {};
    (@fns ($cfg:expr)
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __config: $crate::test_runner::ProptestConfig = $cfg;
            let __strategy = ($($strat,)+);
            $crate::run_property(
                stringify!($name),
                &__config,
                __strategy,
                |($($arg,)+)| -> ::std::result::Result<(), $crate::test_runner::TestCaseError> {
                    $body
                    #[allow(unreachable_code)]
                    ::std::result::Result::Ok(())
                },
            );
        }
        $crate::proptest!(@fns ($cfg) $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@fns ($crate::test_runner::ProptestConfig::default()) $($rest)*);
    };
}

/// Asserts a condition inside a property, failing the case (not
/// panicking) so the harness can report the generating inputs.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                concat!("assertion failed: ", stringify!($cond)),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)+),
            ));
        }
    };
}

/// `prop_assert!` for equality, printing both sides on failure.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let __a = $a;
        let __b = $b;
        if __a != __b {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(format!(
                "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
                stringify!($a),
                stringify!($b),
                __a,
                __b
            )));
        }
    }};
}

/// `prop_assert!` for inequality.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => {{
        let __a = $a;
        let __b = $b;
        if __a == __b {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(format!(
                "assertion failed: {} != {} (both {:?})",
                stringify!($a),
                stringify!($b),
                __a
            )));
        }
    }};
}

/// Union of strategies: picks one arm uniformly per case.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::union(vec![
            $($crate::strategy::Strategy::boxed($strat)),+
        ])
    };
}
