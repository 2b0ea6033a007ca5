#!/bin/sh
# treebench query and plan: each documented OQL error (lexical, syntax, unsupported
# query) prints exactly one "treebench: <kind>: ..." line on stderr and
# exits 2, like the other usage errors.
# Usage: sh cli_errors.sh path/to/treebench.exe
exe=$1
status=0

expect() {
  cmd=$1
  kind=$2
  text=$3
  err=$("$exe" "$cmd" --scale 4000 "$text" 2>&1 >/dev/null)
  rc=$?
  lines=$(printf '%s\n' "$err" | wc -l)
  case $err in
  "treebench: $kind: "*) ok_msg=yes ;;
  *) ok_msg=no ;;
  esac
  if [ "$rc" -ne 2 ] || [ "$lines" -ne 1 ] || [ "$ok_msg" != yes ]; then
    echo "FAIL: $cmd: $kind: exit $rc, $lines line(s): $err"
    status=1
  else
    echo "ok   $cmd: $err"
  fi
}

expect query "lexical error" "select pa from pa in Patients where pa.num < 1 #"
expect query "parse error" "select from pa in Patients"
expect query "unsupported query" "select [p.name, pa.zzz] from p in Providers, pa in p.clients where pa.mrn < 10 and p.upin < 10"
expect plan "unsupported query" "select x from x in Nowhere"
exit $status
