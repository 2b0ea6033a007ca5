#!/bin/sh
# treebench query and plan: each documented OQL error (lexical, syntax, unsupported
# query) prints exactly one "treebench: <kind>: ..." line on stderr and
# exits 2, like the other usage errors.  A flag value that cmdliner itself
# refuses (a non-positive --scale) exits 124 with a first line naming the
# option, then its usage lines.  None of them may escape as an uncaught
# exception (exit 125).
# Names are checked against the schema before the database is built, so
# an unknown one fails at once even at the default scale.
# Usage: sh cli_errors.sh path/to/treebench.exe
exe=$1
status=0

# expect CMD KIND TEXT [FLAG...]: exit 2 and one line "treebench: KIND: ...".
# A KIND that is a flag's own message ("--shards ...") is followed by a
# space, not a colon.  With KIND "option '--flag'" (cmdliner's refusal),
# exit 124 and a first line "treebench: KIND: ...".
expect() {
  cmd=$1
  kind=$2
  text=$3
  shift 3
  err=$("$exe" "$cmd" "$@" "$text" 2>&1 >/dev/null)
  rc=$?
  lines=$(printf '%s\n' "$err" | wc -l)
  first=$(printf '%s\n' "$err" | head -n 1)
  case $kind in
  option*) want_rc=124 ;;
  *) want_rc=2 ;;
  esac
  case $kind in
  --*) sep=' ' ;;
  *) sep=': ' ;;
  esac
  case $first in
  "treebench: $kind$sep"*) ok_msg=yes ;;
  *) ok_msg=no ;;
  esac
  if [ "$rc" -ne "$want_rc" ] || [ "$ok_msg" != yes ] ||
    { [ "$want_rc" -eq 2 ] && [ "$lines" -ne 1 ]; }; then
    echo "FAIL: $cmd: $kind: exit $rc, $lines line(s): $err"
    status=1
  else
    echo "ok   $cmd: $first"
  fi
}

expect query "lexical error" "select pa from pa in Patients where pa.num < 1 #" --scale 4000
expect query "lexical error" "select pa.age from pa in Patients where pa.num < 99999999999999999999999" --scale 4000
expect query "parse error" "select from pa in Patients" --scale 4000
expect query "unsupported query" "select [p.name, pa.zzz] from p in Providers, pa in p.clients where pa.mrn < 10 and p.upin < 10" --scale 4000
expect plan "unsupported query" "select x from x in Nowhere" --scale 4000
expect query "unsupported query" "select pa.zzz from pa in Patients where pa.num < 10"
expect plan "unsupported query" "select pa.age from pa in Patients where pa.zzz < 10"
expect query "option '--scale'" "select pa.age from pa in Patients where pa.num < 10" --scale 0
expect figure "option '--scale'" fig6 --scale 0
expect query "--shards expects at most 16" "select pa.age from pa in Patients where pa.num < 10" --scale 4000 --shards 17
exit $status
