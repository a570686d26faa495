#!/bin/sh
# Polymorphic-comparison guard for the hot modules.
#
# Lint rule L1 reads the untyped syntax tree, so it passes `<` or `=`
# whose operands the type checker leaves as type variables (an
# unannotated comparison helper, say).  The compiler then emits a call
# into the runtime's generic comparison, which walks both values
# through the C runtime on every call and can double a kernel's time
# while allocating nothing.  This check reads what the compiler did:
# it lists the undefined symbols of the native objects of Simplex,
# Model, Tcam and Optimization_engine and fails when one of them calls
# caml_compare, caml_equal, caml_notequal, caml_lessthan,
# caml_lessequal, caml_greaterthan or caml_greaterequal.
#
# Run it after `dune build`; it reads the objects under _build.
#
# Usage: sh tools/check_hot_compare.sh
set -eu

native=_build/default/lib
objects="
lp/.apple_lp.objs/native/apple_lp__Simplex.o
lp/.apple_lp.objs/native/apple_lp__Model.o
dataplane/.apple_dataplane.objs/native/apple_dataplane__Tcam.o
core/.apple_core.objs/native/apple_core__Optimization_engine.o
"
generic='^caml_(compare|equal|notequal|lessthan|lessequal|greaterthan|greaterequal)$'

status=0
for obj in $objects; do
  path="$native/$obj"
  if [ ! -f "$path" ]; then
    echo "check_hot_compare: $path not found (run dune build first)" >&2
    exit 1
  fi
  calls=$(nm -u "$path" | awk '{ print $NF }' | grep -E "$generic" || true)
  if [ -n "$calls" ]; then
    echo "check_hot_compare: $path calls polymorphic comparison:" \
      $calls >&2
    status=1
  fi
done
[ "$status" -eq 0 ] && echo "check_hot_compare: no polymorphic comparison in the hot modules"
exit "$status"
