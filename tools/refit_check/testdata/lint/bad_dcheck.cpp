// Fixture: side effects inside REFIT_DCHECK, which vanish under NDEBUG.
#define REFIT_DCHECK(expr) ((void)0)
#define REFIT_DCHECK_MSG(expr, msg) ((void)0)

void increments(int i) {
  REFIT_DCHECK(++i < 10);  // EXPECT: dcheck-side-effect
}

void assigns(int x) {
  REFIT_DCHECK(x = 5);  // EXPECT: dcheck-side-effect
}

void compound_assigns(int x) {
  REFIT_DCHECK_MSG(x += 2, "oops");  // EXPECT: dcheck-side-effect
}

void comparisons_are_fine(int x, int y) {
  REFIT_DCHECK(x == 5);
  REFIT_DCHECK(x <= y && y >= 0);
  REFIT_DCHECK_MSG(x != y, "x=" << x);
}

void suppressed(int i) {
  REFIT_DCHECK(i-- > 0);  // refit-check: allow(dcheck-side-effect)
}
