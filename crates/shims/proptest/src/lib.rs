//! Hermetic stand-in for the `proptest` API surface this workspace uses.
//!
//! The build environment has no network access, so the real `proptest`
//! crate cannot be fetched. This shim implements the subset the workspace's
//! property tests rely on: the [`proptest!`]/[`prop_assert!`] macros, the
//! [`strategy::Strategy`] trait with `prop_map`, [`arbitrary::any`],
//! integer/float range strategies, tuple strategies, [`collection::vec`],
//! [`string::string_regex`] (a small generator-only regex subset), and
//! [`prop_oneof!`].
//!
//! Differences from upstream: no shrinking (a failing case reports its
//! generated inputs but is not minimized), a fixed case count of 64, and a
//! deterministic per-test RNG seeded from the test's module path, so runs
//! are exactly reproducible.

#![forbid(unsafe_code)]

pub mod arbitrary;
pub mod collection;
pub mod strategy;
pub mod string;
pub mod test_runner;

/// Everything a property test needs in scope.
pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::strategy::Strategy;
    pub use crate::test_runner::TestCaseError;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Declares property tests. Each function body runs for a fixed number of
/// deterministic cases with its `name in strategy` bindings regenerated per
/// case.
#[macro_export]
macro_rules! proptest {
    () => {};
    ($(#[$meta:meta])* fn $name:ident($($args:tt)*) $body:block $($rest:tt)*) => {
        $crate::__proptest_one!($(#[$meta])* fn $name($($args)*) $body);
        $crate::proptest!($($rest)*);
    };
}

/// Expands a single property-test function (implementation detail of
/// [`proptest!`]).
#[macro_export]
macro_rules! __proptest_one {
    ($(#[$meta:meta])* fn $name:ident($($binds:tt)*) $body:block) => {
        $(#[$meta])*
        fn $name() {
            let mut __rng = $crate::test_runner::TestRng::from_name(concat!(
                module_path!(),
                "::",
                stringify!($name)
            ));
            for __case in 0..$crate::test_runner::CASES {
                $crate::__proptest_lets!(__rng; $($binds)*);
                let __result: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                    (|| {
                        $body
                        ::std::result::Result::Ok(())
                    })();
                if let ::std::result::Result::Err(__e) = __result {
                    ::std::panic!(
                        "property test {} failed at case {}: {}",
                        stringify!($name),
                        __case,
                        __e
                    );
                }
            }
        }
    };
}

/// Turns a `name in strategy, ...` binding list into `let` statements
/// (implementation detail of [`proptest!`]). The `mut` rules must come
/// first: `ident` fragments also match the `mut` keyword.
#[macro_export]
macro_rules! __proptest_lets {
    ($rng:ident;) => {};
    ($rng:ident; mut $bind:ident in $strat:expr) => {
        let mut $bind = $crate::strategy::Strategy::generate(&($strat), &mut $rng);
    };
    ($rng:ident; mut $bind:ident in $strat:expr, $($rest:tt)*) => {
        let mut $bind = $crate::strategy::Strategy::generate(&($strat), &mut $rng);
        $crate::__proptest_lets!($rng; $($rest)*);
    };
    ($rng:ident; $bind:ident in $strat:expr) => {
        let $bind = $crate::strategy::Strategy::generate(&($strat), &mut $rng);
    };
    ($rng:ident; $bind:ident in $strat:expr, $($rest:tt)*) => {
        let $bind = $crate::strategy::Strategy::generate(&($strat), &mut $rng);
        $crate::__proptest_lets!($rng; $($rest)*);
    };
}

/// Asserts a condition inside a [`proptest!`] body, failing the case (not
/// panicking) when false.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                ::std::format!($($fmt)*),
            ));
        }
    };
}

/// Asserts two expressions are equal inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {
        match (&$left, &$right) {
            (__l, __r) => {
                $crate::prop_assert!(
                    *__l == *__r,
                    "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
                    stringify!($left),
                    stringify!($right),
                    __l,
                    __r
                );
            }
        }
    };
}

/// Asserts two expressions are unequal inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr) => {
        match (&$left, &$right) {
            (__l, __r) => {
                $crate::prop_assert!(
                    *__l != *__r,
                    "assertion failed: {} != {} (both {:?})",
                    stringify!($left),
                    stringify!($right),
                    __l
                );
            }
        }
    };
}

/// Picks uniformly among several strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::OneOf::new(::std::vec![
            $(::std::boxed::Box::new($crate::strategy::Strategy::prop_map($strat, |v| v))
                as ::std::boxed::Box<dyn $crate::strategy::Strategy<Value = _>>),+
        ])
    };
}
