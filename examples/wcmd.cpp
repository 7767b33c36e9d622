// wcmd — the standalone adversarial-input daemon (docs/SERVE.md); the same
// serve entry as `wcmgen serve`.
//
//   wcmd [--socket path|@name] [--data-dir dir] [--threads n]
//        [--queue-max n] [--batch-max n] [--max-connections n]
//        [--eventlog file.jsonl] [--quiet]

#include "serve/server.hpp"

int main(int argc, char** argv) { return wcm::serve::daemon_main(argc, argv); }
