#!/usr/bin/env bash
# Flag-documentation lint: every flag a cmd/ binary registers must be
# mentioned in docs/OPERATIONS.md. Parses each binary's real -help
# output, so a new flag that skips the runbook fails CI. Run via
# `make docs`.
set -euo pipefail
cd "$(dirname "$0")/.."

DOC=docs/OPERATIONS.md
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

# Binary → invocation that prints its flag set.
declare -A HELP=(
  [knnrun]="knnrun -help"
  [statestore]="statestore -help"
  [knnserve]="knnserve -help"
  [knnload]="knnload -help"
  [table1]="table1 -help"
  [knnlint]="knnlint -help"
)

echo "== building binaries"
for bin in knnrun statestore knnserve knnload table1 knnlint; do
  go build -o "$WORK/$bin" "./cmd/$bin"
done

FAIL=0
for name in "${!HELP[@]}"; do
  read -r bin args <<<"${HELP[$name]}"
  # flag's -help exits non-zero by design; only the usage text matters.
  "$WORK/$bin" $args >"$WORK/help.txt" 2>&1 || true
  # Flag lines look like "  -users int" or "  -writeback".
  mapfile -t flags < <(grep -oP '^\s+-\K[a-z-]+' "$WORK/help.txt" | sort -u)
  if [ "${#flags[@]}" -eq 0 ]; then
    echo "FAIL: no flags parsed from '$bin $args' — help output changed shape?"
    cat "$WORK/help.txt"
    FAIL=1
    continue
  fi
  for f in "${flags[@]}"; do
    if ! grep -q -- "\`-$f\`" "$DOC"; then
      echo "FAIL: $bin flag -$f is not documented in $DOC"
      FAIL=1
    fi
  done
  echo "ok: $name (${#flags[@]} flags documented)"
done

exit "$FAIL"
