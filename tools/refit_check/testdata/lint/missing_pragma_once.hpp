// Fixture: header with no include guard at all.
// EXPECT@1: pragma-once

inline int three() { return 3; }
