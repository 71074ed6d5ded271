#include <cstddef>
// EXPECT@1: file-header
// (the include above means the file does not open with a purpose comment)

std::size_t zero() { return 0; }
