#!/usr/bin/env bash
# Docs link check: every code reference in docs/*.md (and README.md) must
# still exist in the tree, so the architecture/serving manuals cannot
# silently rot as the code moves.
#
# Three kinds of backtick-quoted references are checked:
#   1. path-like   — `src/runtime/executor.h`, `docs/serving.md`,
#                    `scripts/bench_smoke.sh` ... must exist as files/dirs;
#   2. symbol-like — namespace-qualified identifiers such as
#                    `runtime::InferenceServer` or `pool::CodecOptions`:
#                    the final component must appear, as a whole word, in
#                    a code file (*.h, *.cpp, *.sh, *.py) under
#                    src/ tests/ bench/ examples/ scripts/. Prose files
#                    (READMEs, baselines) do not count: a deleted symbol
#                    still named in prose must not resolve;
#   3. member-like — class-qualified members such as
#                    `KernelBackend::execute(ctx)` or
#                    `CompileOptions::cost_profile`, call parentheses
#                    optional: checked like 2, on the member name.
#
# Usage: scripts/check_docs.sh   (from anywhere; resolves the repo root)
set -uo pipefail
cd "$(dirname "$0")/.."
status=0

# Reads qualified references from stdin; reports each whose final component
# (call parentheses dropped) appears as a whole word in no code file, so
# a deleted `run` does not resolve against `run_view` either.
check_symbols() {
  local doc="$1" sym leaf
  while IFS= read -r sym; do
    sym="${sym%%(*}"
    leaf="${sym##*::}"
    [ -n "$leaf" ] || continue
    if ! grep -rqwF --include='*.h' --include='*.cpp' --include='*.sh' --include='*.py' \
         "$leaf" src/ tests/ bench/ examples/ scripts/ 2>/dev/null; then
      echo "MISSING SYMBOL $doc -> $sym"
      status=1
    fi
  done
}

for doc in docs/*.md README.md; do
  [ -f "$doc" ] || continue

  # Path-like references: at least one '/', only path characters.
  while IFS= read -r ref; do
    if [ ! -e "$ref" ]; then
      echo "MISSING PATH   $doc -> $ref"
      status=1
    fi
  done < <(grep -oE '`[A-Za-z0-9_.-]+(/[A-Za-z0-9_.-]+)+`' "$doc" \
             | tr -d '`' | sort -u)

  # Symbol references under the project's namespaces.
  check_symbols "$doc" < <(grep -oE '`(bswp|runtime|pool|quant|kernels|nn|sim|models|data|lowering)::[A-Za-z0-9_]+(::[A-Za-z0-9_]+)*`' "$doc" \
             | tr -d '`' | sort -u)

  # Member references on a class (capitalized first component).
  check_symbols "$doc" < <(grep -oE '`[A-Z][A-Za-z0-9_]*(::[A-Za-z0-9_]+)+(\([^`]*\))?`' "$doc" \
             | tr -d '`' | sort -u)
done

if [ "$status" -eq 0 ]; then
  echo "check_docs: all doc references resolve"
else
  echo "check_docs: stale references found (fix the doc or the code move)"
fi
exit $status
