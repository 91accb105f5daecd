# Writes OUT, a header that defines dmt::kModelIdentity: a digest of
# every .cc and .hh under SRC_DIR except cli/, serve/ and trace/, the
# sources that can change a simulation result.  OUT is rewritten only
# when the digest changes, so its includers recompile only then.
#
#   cmake -DSRC_DIR=<src> -DOUT=<header> -P model_identity.cmake
file(GLOB_RECURSE sources RELATIVE "${SRC_DIR}"
     "${SRC_DIR}/*.cc" "${SRC_DIR}/*.hh")
list(FILTER sources EXCLUDE REGEX "^(cli|serve|trace)/")
list(SORT sources)
set(listing "")
foreach(f IN LISTS sources)
    file(SHA256 "${SRC_DIR}/${f}" h)
    string(APPEND listing "${f} ${h}\n")
endforeach()
string(SHA256 digest "${listing}")
string(SUBSTRING "${digest}" 0 16 digest)
file(WRITE "${OUT}.tmp"
     "// Generated by src/model_identity.cmake.\n#pragma once\n"
     "namespace dmt { constexpr char kModelIdentity[] = \"${digest}\"; }\n")
execute_process(COMMAND "${CMAKE_COMMAND}" -E copy_if_different
                "${OUT}.tmp" "${OUT}")
file(REMOVE "${OUT}.tmp")
