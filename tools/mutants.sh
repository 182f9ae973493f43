#!/bin/sh
# Mutation checks: every patch under tools/mutants/ plants one bug that a
# test was written to catch, and names that test's command in a header
# line `# test: <command>`. The check passes only if every patch still
# applies and every mutant makes its command fail.
#
#   sh tools/mutants.sh                                  # every patch
#   sh tools/mutants.sh tools/mutants/chord-*.patch      # chosen ones
#
# Patch paths are relative to the repository root. A mutant that does not
# compile is an error too: it would fail its command without testing it.
# A mutant must keep the code finite (no endless loop, no unbounded
# growth), since its command runs with no time or memory limit.
#
# The working tree as it stands (tracked files and untracked ones that
# are not ignored, uncommitted edits included) is copied to
# target/mutants/tree, a repository of its own, with file times kept.
# Each patch is applied there with `git apply`, its command is run there,
# and the patch is reverted before the next one. All commands share one
# CARGO_TARGET_DIR (target/mutants/target unless the environment sets
# one), so each mutant rebuilds only the crates its patch touches; the
# fixed paths let a second run reuse the first one's build. Cargo runs
# offline. A command's output goes to target/mutants/<patch>.log.
#
# A patch that no longer applies is an error naming it: whoever moved the
# code it mutates refreshes the patch.
set -eu
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
if [ "$#" -eq 0 ]; then
    set -- tools/mutants/*.patch
fi
out="$root/target/mutants"
tree="$out/tree"
rm -rf "$tree"
mkdir -p "$tree"
git ls-files -z --cached --others --exclude-standard |
    tar --null --ignore-failed-read -T - -cf - | tar -xf - -C "$tree"
git -C "$tree" init -q
CARGO_TARGET_DIR=${CARGO_TARGET_DIR:-$out/target}
case $CARGO_TARGET_DIR in
/*) ;;
*) CARGO_TARGET_DIR="$root/$CARGO_TARGET_DIR" ;;
esac
export CARGO_TARGET_DIR CARGO_NET_OFFLINE=true

failed=0
for patch in "$@"; do
    name=$(basename "$patch" .patch)
    patch=$(cd "$(dirname "$patch")" && pwd)/$(basename "$patch")
    cmd=$(sed -n 's/^# test: //p' "$patch" | head -n 1)
    if [ -z "$cmd" ]; then
        echo "ERROR  $name: no '# test:' header line" >&2
        failed=1
        continue
    fi
    if ! git -C "$tree" apply "$patch" 2>"$out/$name.log"; then
        echo "STALE  $name: the patch no longer applies (see $out/$name.log)" >&2
        failed=1
        continue
    fi
    if (cd "$tree" && sh -c "$cmd") >>"$out/$name.log" 2>&1; then
        echo "MISSED $name: \`$cmd\` passes with the mutant in (see $out/$name.log)" >&2
        failed=1
    elif grep -q '^error: could not compile' "$out/$name.log"; then
        echo "BROKEN $name: the mutant does not compile (see $out/$name.log)" >&2
        failed=1
    else
        echo "caught $name: \`$cmd\` fails"
    fi
    git -C "$tree" apply -R "$patch"
done
exit "$failed"
