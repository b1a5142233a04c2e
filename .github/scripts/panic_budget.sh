#!/usr/bin/env bash
# Panic budget (ROADMAP open item 4(d)): the number of places library
# code can abort the process may fall, never rise. Counts occurrences
# of `unwrap(` / `expect(` and of `panic!` / `unreachable!` in the
# non-test source of every crate — `crates/*/src`, leaving out `bin/`
# and, per file, everything from the first `#[cfg(test)]` on — and
# fails if either exceeds the count pinned here. Lower the pins when a
# change removes some; a change that needs to raise one must say why.
# The same cut of the crates, the vendored shims (`vendor/*/src`) and
# the facade (`src`) is held to an `unsafe` budget the same way (ROADMAP
# aim 3): it is 0, and every crate root (the bins' too) carries
# `#![forbid(unsafe_code)]`, so the compiler holds it as well.
# Also prints that same non-test source's line count per crate (the
# number ROADMAP item 5 tracks; not gated), and the Rust line count of
# `vendor/`, tests included.
set -euo pipefail

MAX_UNWRAP_EXPECT=52
MAX_PANIC_UNREACHABLE=22
MAX_UNSAFE=0

cd "$(dirname "$0")/../.."
# The non-test library source of the crate directories given (default:
# every crate under crates/).
lib_source() {
  [ $# -gt 0 ] || set -- crates/*
  local srcs=()
  for dir in "$@"; do srcs+=("$dir/src"); done
  find "${srcs[@]}" -name '*.rs' -not -path '*/bin/*' -print0 |
    xargs -0 awk 'FNR == 1 { test = 0 } /#\[cfg\(test\)\]/ { test = 1 } !test'
}
# Occurrences of regex $1 in lib_source of the rest of the arguments
# (grep's exit status 1, no match, is a count of 0, not a failure).
count() {
  local re=$1
  shift
  lib_source "$@" | { grep -oE "$re" || [ $? -eq 1 ]; } | wc -l
}

for src in crates/*/src; do
  crate=${src%/src}
  echo "non-test lines ${crate#crates/}: $(lib_source "$crate" | wc -l)"
done
echo "rust lines vendor (tests included): $(find vendor -name '*.rs' -print0 | xargs -0 cat | wc -l)"
unwraps=$(count '\b(unwrap|expect)\(')
panics=$(count '\b(panic|unreachable)!')
unsafes=$(count '\bunsafe\b' crates/* vendor/* .)
echo "unwrap(/expect(: $unwraps (budget $MAX_UNWRAP_EXPECT)"
echo "panic!/unreachable!: $panics (budget $MAX_PANIC_UNREACHABLE)"
echo "unsafe: $unsafes (budget $MAX_UNSAFE)"
[ "$unwraps" -le "$MAX_UNWRAP_EXPECT" ] && [ "$panics" -le "$MAX_PANIC_UNREACHABLE" ] &&
  [ "$unsafes" -le "$MAX_UNSAFE" ]
