#!/usr/bin/env bash
# Panic budget (ROADMAP open item 4(d)): the number of places library
# code can abort the process may fall, never rise. Counts occurrences
# of `unwrap(` / `expect(` and of `panic!` / `unreachable!` in the
# non-test source of every crate — `crates/*/src`, leaving out `bin/`
# and, per file, everything from the first `#[cfg(test)]` on — and
# fails if either exceeds the count pinned here. Lower the pins when a
# change removes some; a change that needs to raise one must say why.
# Also prints that same non-test source's line count per crate (the
# number ROADMAP item 5 tracks; not gated).
set -euo pipefail

MAX_UNWRAP_EXPECT=60
MAX_PANIC_UNREACHABLE=28

cd "$(dirname "$0")/../.."
# The non-test library source of crate directory $1 (default: all).
lib_source() {
  find ${1:-crates/*}/src -name '*.rs' -not -path '*/bin/*' -print0 |
    xargs -0 awk 'FNR == 1 { test = 0 } /#\[cfg\(test\)\]/ { test = 1 } !test'
}
count() { lib_source | grep -oE "$1" | wc -l; }

for src in crates/*/src; do
  crate=${src%/src}
  echo "non-test lines ${crate#crates/}: $(lib_source "$crate" | wc -l)"
done
unwraps=$(count '\b(unwrap|expect)\(')
panics=$(count '\b(panic|unreachable)!')
echo "unwrap(/expect(: $unwraps (budget $MAX_UNWRAP_EXPECT)"
echo "panic!/unreachable!: $panics (budget $MAX_PANIC_UNREACHABLE)"
[ "$unwraps" -le "$MAX_UNWRAP_EXPECT" ] && [ "$panics" -le "$MAX_PANIC_UNREACHABLE" ]
