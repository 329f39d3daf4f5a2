"""The statically linked MiniC runtime library.

The paper's benchmarks were linked statically "so that the libraries
are included in the results"; every program we produce likewise links
this library.  Most of it is ordinary MiniC compiled through the same
pipeline as user code (so its instructions share the same SDTS
templates); ``_start`` alone is hand-written.

Syscall ABI (the ``sc`` instruction, dispatched on r0):

====  ==========  ===========================================
r0    name        effect
====  ==========  ===========================================
0     exit        stop the machine (r3 = exit code)
1     put_int     append the signed integer in r3 to output
2     put_char    append the character in r3 to output
====  ==========  ===========================================
"""

from __future__ import annotations

from repro.linker.objfile import FunctionUnit, InsnRole

RUNTIME_SOURCE = """
// --- repro runtime library (MiniC) ---------------------------------
int __lib_seed;

int abs(int x) {
    if (x < 0) { return -x; }
    return x;
}

int min(int a, int b) {
    if (a < b) { return a; }
    return b;
}

int max(int a, int b) {
    if (a > b) { return a; }
    return b;
}

int clamp(int x, int lo, int hi) {
    if (x < lo) { return lo; }
    if (x > hi) { return hi; }
    return x;
}

int gcd(int a, int b) {
    while (b != 0) {
        int t = a % b;
        a = b;
        b = t;
    }
    return a;
}

int ipow(int base, int exponent) {
    int result = 1;
    while (exponent > 0) {
        if (exponent & 1) { result = result * base; }
        base = base * base;
        exponent = exponent >> 1;
    }
    return result;
}

int ilog2(int x) {
    int n = 0;
    while (x > 1) {
        x = x >> 1;
        n = n + 1;
    }
    return n;
}

int popcount(int x) {
    int n = 0;
    int i;
    for (i = 0; i < 32; i = i + 1) {
        n = n + (x & 1);
        x = (x >> 1) & 0x7fffffff;
    }
    return n;
}

void srand(int s) {
    __lib_seed = s;
}

int rand() {
    __lib_seed = __lib_seed * 1103515245 + 12345;
    return (__lib_seed >> 16) & 32767;
}

void print_char(int c) {
    __outc(c);
}

void print_nl() {
    __outc(10);
}

void print_int(int x) {
    if (x < 0) {
        __outc(45);
        x = -x;
    }
    if (x >= 10) {
        print_int(x / 10);
    }
    __outc(48 + x % 10);
}

void print_str(char s[]) {
    int i = 0;
    while (s[i] != 0) {
        __outc(s[i]);
        i = i + 1;
    }
}

int strlen_c(char s[]) {
    int i = 0;
    while (s[i] != 0) {
        i = i + 1;
    }
    return i;
}

void memset_i(int a[], int n, int value) {
    int i;
    for (i = 0; i < n; i = i + 1) {
        a[i] = value;
    }
}

void memcpy_i(int dst[], int src[], int n) {
    int i;
    for (i = 0; i < n; i = i + 1) {
        dst[i] = src[i];
    }
}

int sum_i(int a[], int n) {
    int total = 0;
    int i;
    for (i = 0; i < n; i = i + 1) {
        total = total + a[i];
    }
    return total;
}

int index_of(int a[], int n, int value) {
    int i;
    for (i = 0; i < n; i = i + 1) {
        if (a[i] == value) { return i; }
    }
    return -1;
}

void sort_i(int a[], int n) {
    int i;
    for (i = 1; i < n; i = i + 1) {
        int key = a[i];
        int j = i - 1;
        while (j >= 0 && a[j] > key) {
            a[j + 1] = a[j];
            j = j - 1;
        }
        a[j + 1] = key;
    }
}
"""

# Names defined by RUNTIME_SOURCE, used to flag library functions.
RUNTIME_FUNCTIONS = frozenset(
    {
        "abs",
        "min",
        "max",
        "clamp",
        "gcd",
        "ipow",
        "ilog2",
        "popcount",
        "srand",
        "rand",
        "print_char",
        "print_nl",
        "print_int",
        "print_str",
        "strlen_c",
        "memset_i",
        "memcpy_i",
        "sum_i",
        "index_of",
        "sort_i",
    }
)


def make_start() -> FunctionUnit:
    """Hand-written ``_start``: call main, then exit(r3)."""
    return FunctionUnit(
        "_start",
        is_library=True,
        mnemonics=["bl", "addi", "sc"],
        values=[(0,), (0, 0, 0), ()],  # addi: li r0,0 (exit)
        roles=[InsnRole.BODY] * 3,
        relocs={0: ("main", None, None, 0)},
    )
