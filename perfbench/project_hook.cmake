# Included right after the repository's top-level project() call (run.py
# passes it as CMAKE_PROJECT_INCLUDE). It defers include() of the
# benchmark's CMakeLists.txt to the end of the top-level CMakeLists, so the
# benchmark links the repository's own library targets without any edit
# to the repository's build files.
include_guard(GLOBAL)
cmake_language(EVAL CODE
  "cmake_language(DEFER DIRECTORY [[${CMAKE_SOURCE_DIR}]]
     CALL include [[${CMAKE_CURRENT_LIST_DIR}/CMakeLists.txt]])")
