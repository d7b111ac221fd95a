// relmore-lint: fixture
// relmore-lint: locale-free
// Seeded R4 violation: a reader that declares itself locale-free (as
// src/circuit/netlist.cpp and src/sta/design.cpp are, by the tool's
// built-in list) but reads a value with strtod and folds case with the
// one-argument std::tolower, both of which follow the process locale:
// under a locale whose decimal point is ',', strtod stops "1.5" at the '.'.
// relmore-lint must exit nonzero.

#include <cctype>
#include <cstdlib>

double read_value(const char* text, char** end) { return std::strtod(text, end); }

char fold(char c) { return static_cast<char>(std::tolower(static_cast<unsigned char>(c))); }
