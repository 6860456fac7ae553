/**
 * @file
 * Served-pipeline benchmark program: times the pipeline the server
 * actually runs, from request to reply, and breaks it into layers.
 *
 *   servebench --workload fleet-dense|durable-tiny --seed N
 *              --seconds S --trace 0|1 [--trace-out PATH]
 *
 * The process hosts a NeoServer (NeoRenderer, 64-px tiles, reuse-update
 * sorter, one pipeline thread, no deadline) behind a NetFrontend on an
 * ephemeral loopback port, and drives it with one blocking NetClient per
 * camera stream. Everything but the reference pass runs on one CPU (see
 * pinToOneCpu). Each client is a closed loop:
 * it submits frame f+1 only after the reply for frame f arrived. The
 * seed feeds the synthetic scene generator; the server only ever sees
 * the generated scene and the trajectory parameters.
 *
 * Phases, in order:
 *  - set-up, repeated at least kMinSetups times and until kSetupBudgetS
 *    have passed, at most kMaxSetups times (scene generation, server and
 *    front-end start, session opens, one warm-up frame per session);
 *    the median is setup_s and the last set-up serves the socket runs;
 *  - warm-up: the timed phase's closed loop for kWarmupS, untimed, so
 *    the timed phase starts with every client in steady state;
 *  - timed: the closed-loop socket run for --seconds (end-to-end
 *    metrics), continuing each client's frame sequence;
 *  - with --trace 1, the socket run takes half of --seconds and is
 *    followed by a Stats round-trip probe and the traced run for the
 *    other half: a fresh server driven in-process in the front end's
 *    order (Session::submit then Session::step per request, sessions
 *    round robin, NeoServer::maybeCheckpoint once per tick) with a span
 *    around every call, kept in memory and written as Chrome
 *    trace-event JSON at exit;
 *  - reference (untimed): a solo NeoRenderer walks every trajectory;
 *    each served frame hash must equal it and each reply must name the
 *    submitted frame, else the run fails. The same pass yields the
 *    exact temporal-reuse counts over a fixed frame window.
 *
 * Every layer is timed from outside, around calls into public
 * functions. The report is one JSON object on stdout; progress goes to
 * stderr. Exit status is 0 only when the correctness gate passed.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <dirent.h>
#include <pthread.h>
#include <sched.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/parallel.h"
#include "common/stats.h"
#include "core/neo_renderer.h"
#include "scene/synthetic.h"
#include "scene/trajectory.h"
#include "serve/durable/durable.h"
#include "serve/net/client.h"
#include "serve/net/frontend.h"
#include "serve/server.h"

using namespace neo;

namespace
{

// --- Workloads -----------------------------------------------------------

struct Workload
{
    const char *name;
    size_t gaussians;
    int width;
    int height;
    /** One client (and one session) per orbit speed. */
    std::vector<float> speeds;
    bool durable;
};

const std::vector<Workload> &
workloads()
{
    static const std::vector<Workload> table = {
        {"fleet-dense", 64000, 320, 192, {1.0f, 2.0f, 4.0f, 8.0f}, false},
        {"durable-tiny", 2000, 160, 96, {1.0f}, true},
    };
    return table;
}

constexpr int kClusters = 8;
constexpr float kExtent = 8.0f;
/** Set-ups per run: at least kMinSetups, then more until kSetupBudgetS
    seconds have passed, at most kMaxSetups. setup_s is their median, so
    a cheap set-up is sampled often enough to be steady. */
constexpr int kMinSetups = 7;
constexpr int kMaxSetups = 101;
constexpr double kSetupBudgetS = 2.0;
/** Untimed closed-loop seconds between the last set-up and the timed
    phase: the first round, where every client's request queues behind
    all the others, is not timed. */
constexpr double kWarmupS = 1.0;
/** Frames 1..kCountWindow of every trajectory feed the exact counts. */
constexpr int kCountWindow = 30;
/** rss_mb is the peak RSS once client 0 has this many replies: a fixed
    amount of work, so a faster server does not serve (and grow) more. */
constexpr uint64_t kRssFrame = 100;
/** Stats round trips in the --trace 1 wire probe. */
constexpr int kStatsProbes = 200;

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string trace_out;
};

[[noreturn]] void
fail(const std::string &msg)
{
    std::fprintf(stderr, "servebench: %s\n", msg.c_str());
    std::fflush(stdout);
    std::fflush(stderr);
    // Threads may still be parked in blocking calls; do not unwind.
    std::_Exit(1);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        if (i + 1 >= argc)
            fail(std::string("flag needs a value: ") + argv[i]);
        const char *flag = argv[i];
        const char *value = argv[++i];
        char *end = nullptr;
        if (std::strcmp(flag, "--workload") == 0) {
            a.workload = value;
        } else if (std::strcmp(flag, "--seed") == 0) {
            a.seed = std::strtoull(value, &end, 10);
            if (*value == '\0' || *end != '\0')
                fail(std::string("bad --seed ") + value);
        } else if (std::strcmp(flag, "--seconds") == 0) {
            a.seconds = std::strtod(value, &end);
            if (*value == '\0' || *end != '\0' || !(a.seconds > 0.0) ||
                a.seconds > 600.0)
                fail(std::string("bad --seconds ") + value);
        } else if (std::strcmp(flag, "--trace") == 0) {
            if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0)
                fail(std::string("--trace takes 0 or 1, got ") + value);
            a.trace = value[0] == '1';
        } else if (std::strcmp(flag, "--trace-out") == 0) {
            a.trace_out = value;
        } else {
            fail(std::string("unknown flag ") + flag);
        }
    }
    return a;
}

// --- Timing and statistics -------------------------------------------------

using Clock = std::chrono::steady_clock;
const Clock::time_point kEpoch = Clock::now();

/** Nanoseconds since process start (the trace's time base). */
int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - kEpoch)
        .count();
}

double
nsToMs(int64_t ns)
{
    return static_cast<double>(ns) * 1e-6;
}

/**
 * Peak resident set of this process in MiB: VmHWM, which exec resets.
 * (getrusage's ru_maxrss also carries the launching process's peak
 * across exec, so it would read the parent's footprint.)
 */
double
peakRssMb()
{
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (!f)
        return 0.0;
    char line[256];
    double kib = 0.0;
    while (std::fgets(line, sizeof line, f)) {
        if (std::strncmp(line, "VmHWM:", 6) == 0) {
            kib = std::strtod(line + 6, nullptr);
            break;
        }
    }
    std::fclose(f);
    return kib / 1024.0;
}

// --- Trace -----------------------------------------------------------------

/** One completed span. Spans of one request share (session, req). */
struct Span
{
    const char *name = "";
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    uint64_t id = 0;
    uint64_t parent = 0; //!< 0 = root
    int64_t req = -1;    //!< trajectory frame, -1 when not a request
    int32_t session = -1;
};

/** One thread's spans. Only its owner thread appends. */
struct Track
{
    std::string name;
    std::vector<Span> spans;
};

/**
 * In-memory trace: one Track per recording thread, created (like every
 * span id) on the main thread before that thread starts, so appends never
 * lock. Written once, at exit, as Chrome
 * trace-event JSON (complete "X" events plus thread_name metadata), the
 * format later in-program spans can merge into.
 */
class Trace
{
  public:
    Track &track(const std::string &name)
    {
        tracks_.push_back(std::make_unique<Track>());
        tracks_.back()->name = name;
        return *tracks_.back();
    }

    uint64_t nextId() { return ++last_id_; }

    bool write(const std::string &path) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (!f)
            return false;
        std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        bool first = true;
        for (size_t t = 0; t < tracks_.size(); ++t) {
            const Track &tr = *tracks_[t];
            std::fprintf(f,
                         "%s{\"name\":\"thread_name\",\"ph\":\"M\","
                         "\"pid\":1,\"tid\":%zu,\"args\":{\"name\":\"%s\"}}",
                         first ? "" : ",\n", t + 1, tr.name.c_str());
            first = false;
            for (const Span &s : tr.spans) {
                std::fprintf(f,
                             ",\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                             "\"tid\":%zu,\"ts\":%.3f,\"dur\":%.3f,"
                             "\"args\":{\"id\":%llu,\"parent\":%llu",
                             s.name, t + 1,
                             static_cast<double>(s.start_ns) * 1e-3,
                             static_cast<double>(s.end_ns - s.start_ns) *
                                 1e-3,
                             static_cast<unsigned long long>(s.id),
                             static_cast<unsigned long long>(s.parent));
                if (s.session >= 0)
                    std::fprintf(f, ",\"session\":%d", s.session);
                if (s.req >= 0)
                    std::fprintf(f, ",\"req\":%lld",
                                 static_cast<long long>(s.req));
                std::fprintf(f, "}}");
            }
        }
        std::fprintf(f, "\n]}\n");
        return std::fclose(f) == 0;
    }

  private:
    std::vector<std::unique_ptr<Track>> tracks_;
    uint64_t last_id_ = 0;
};

// --- Scratch state directory ----------------------------------------------

/** Durable state directory under $TMPDIR; removed with its contents. */
class ScratchDir
{
  public:
    ScratchDir()
    {
        const char *tmp = std::getenv("TMPDIR");
        path_ = std::string(tmp && *tmp ? tmp : "/tmp") +
                "/servebench-durable-XXXXXX";
        if (!mkdtemp(path_.data()))
            fail("cannot create a state directory: " + path_);
    }

    ~ScratchDir()
    {
        forEachFile([](const std::string &p) { ::unlink(p.c_str()); });
        ::rmdir(path_.c_str());
    }

    ScratchDir(const ScratchDir &) = delete;
    ScratchDir &operator=(const ScratchDir &) = delete;

    const std::string &path() const { return path_; }

    /** Bytes held by the files in the directory (it is flat). */
    uint64_t bytes() const
    {
        uint64_t total = 0;
        forEachFile([&total](const std::string &p) {
            struct stat st{};
            if (::stat(p.c_str(), &st) == 0)
                total += static_cast<uint64_t>(st.st_size);
        });
        return total;
    }

  private:
    template <typename Fn> void forEachFile(Fn fn) const
    {
        DIR *d = opendir(path_.c_str());
        if (!d)
            return;
        std::vector<std::string> names;
        while (dirent *e = readdir(d)) {
            const std::string name = e->d_name;
            if (name != "." && name != "..")
                names.push_back(path_ + "/" + name);
        }
        closedir(d);
        for (const std::string &p : names)
            fn(p);
    }

    std::string path_;
};

// --- Server under test -----------------------------------------------------

/**
 * Pins the calling thread to one CPU, the last one it may use (CPU 0
 * takes more interrupts), and returns that CPU, or -1 if it could not.
 * @p saved receives the affinity it had. Threads started from a pinned
 * thread inherit its CPU, so the front end's loop thread and every client
 * thread run there too. On a VM that shares its host, a thread woken on
 * an idle virtual CPU waits until the host runs that CPU again: a request
 * that crossed CPUs timed the host's scheduler, on one CPU it times the
 * program.
 */
int
pinToOneCpu(cpu_set_t *saved)
{
    CPU_ZERO(saved);
    if (sched_getaffinity(0, sizeof *saved, saved) != 0)
        return -1;
    for (int c = CPU_SETSIZE - 1; c >= 0; --c) {
        if (!CPU_ISSET(c, saved))
            continue;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(c, &one);
        return sched_setaffinity(0, sizeof one, &one) == 0 ? c : -1;
    }
    return -1;
}

serve::ServerConfig
serverConfig(const Workload &w)
{
    serve::ServerConfig cfg; // defaults, not the NEO_SERVER_* environment
    cfg.max_sessions = w.speeds.size();
    cfg.pipeline = NeoRenderer::neoDefaultOptions();
    cfg.pipeline.threads = 1; // neo_serve_net's default
    cfg.pipeline.integrity = IntegrityMode::Off;
    // No deadline (QosTarget defaults): every frame renders at native
    // resolution on the reuse path, so its hash is checkable. The stage
    // watchdog keeps its factor but its absolute floor is lifted: on a
    // shared machine a scheduling spike is not a wedged stage, and a
    // trip would turn a healthy frame into a cold-start re-render.
    cfg.watchdog_floor_ms = 10000.0;
    return cfg;
}

std::shared_ptr<const GaussianScene>
makeScene(const Workload &w, uint64_t seed)
{
    SyntheticSceneParams params;
    params.seed = seed;
    params.count = w.gaussians;
    params.clusters = kClusters;
    params.extent = kExtent;
    params.name = w.name;
    return std::make_shared<const GaussianScene>(generateScene(params));
}

/** Durable workloads: enable durability with DurableConfig defaults
    (fdatasync every record, checkpoint every 64, keep 3) in a fresh
    state directory, returned to the caller, who must destroy it after
    the server. Null otherwise. */
std::unique_ptr<ScratchDir>
makeDurable(const Workload &w, serve::NeoServer &server)
{
    if (!w.durable)
        return nullptr;
    auto dir = std::make_unique<ScratchDir>();
    serve::durable::DurableConfig dcfg;
    dcfg.state_dir = dir->path();
    if (!server.enableDurability(dcfg))
        fail("enableDurability failed under " + dir->path());
    return dir;
}

Resolution
resolutionOf(const Workload &w)
{
    return Resolution{w.width, w.height, w.name};
}

/** A submitted frame's reply as the benchmark checks it. */
struct Reply
{
    uint64_t frame = 0;  //!< index the client submitted
    bool answered = false;
    bool native = false; //!< rendered at native resolution, reuse path
    uint64_t request = 0;
    uint64_t hash = 0;
};

/** Reply to frame @p frame as read off the wire. */
Reply
replyOf(uint64_t frame, bool answered, const serve::net::SubmitReply &r)
{
    Reply rec;
    rec.frame = frame;
    rec.answered = answered;
    rec.native = answered && r.accepted && r.stepped && r.rendered &&
                 r.resolution_drop == 0 && !r.direct_path;
    rec.request = r.request;
    rec.hash = r.frame_hash;
    return rec;
}

/** Reply to frame @p frame from an in-process step. */
Reply
replyOf(uint64_t frame, bool stepped, const serve::FrameOutcome &o)
{
    Reply rec;
    rec.frame = frame;
    rec.answered = stepped;
    rec.native = stepped && o.rendered && o.resolution_drop == 0 &&
                 !o.direct_path;
    rec.request = o.request;
    rec.hash = o.frame_hash;
    return rec;
}

/** Requests sent / succeeded / failed in one phase. */
struct PhaseCount
{
    uint64_t sent = 0;
    uint64_t succeeded = 0;
    uint64_t failed = 0;

    void add(bool ok)
    {
        ++sent;
        ++(ok ? succeeded : failed);
    }
    void add(const PhaseCount &o)
    {
        sent += o.sent;
        succeeded += o.succeeded;
        failed += o.failed;
    }
};

/**
 * One served set-up: scene, server, front end on its loop thread, and
 * one connected client per stream. stop() joins the loop thread before
 * anything it uses is destroyed.
 */
struct Served
{
    std::shared_ptr<const GaussianScene> scene;
    std::unique_ptr<ScratchDir> state;
    std::unique_ptr<serve::NeoServer> server;
    std::unique_ptr<serve::net::NetFrontend> frontend;
    std::thread loop;
    std::vector<std::unique_ptr<serve::net::NetClient>> clients;
    std::vector<uint32_t> sessions;

    Served() = default;
    Served(const Served &) = delete;
    Served &operator=(const Served &) = delete;

    ~Served() { stop(); }

    void stop()
    {
        for (auto &c : clients)
            c->close();
        if (frontend)
            frontend->requestStop();
        if (loop.joinable())
            loop.join();
    }
};

struct SetupTiming
{
    double total_s = 0.0;
    double generate_s = 0.0;
};

/** Time one full set-up; warm-up replies land in @p warm (per client). */
std::unique_ptr<Served>
setUp(const Workload &w, uint64_t seed, SetupTiming *timing,
      std::vector<std::vector<Reply>> &warm, PhaseCount &warm_count)
{
    auto s = std::make_unique<Served>();
    const int64_t t0 = nowNs();
    s->scene = makeScene(w, seed);
    const int64_t t_gen = nowNs();

    s->server = std::make_unique<serve::NeoServer>(s->scene, serverConfig(w));
    s->state = makeDurable(w, *s->server);
    serve::net::NetConfig ncfg; // defaults, ephemeral port
    ncfg.port = 0;
    s->frontend = std::make_unique<serve::net::NetFrontend>(*s->server, ncfg);
    if (!s->frontend->start())
        fail("front end bind/listen failed");
    s->loop = std::thread([fe = s->frontend.get()] { fe->run(); });

    for (float speed : w.speeds) {
        auto c = std::make_unique<serve::net::NetClient>();
        if (!c->connect(s->frontend->port()))
            fail("client connect failed");
        serve::net::OpenSessionReq open;
        open.trajectory_kind = static_cast<uint8_t>(TrajectoryKind::Orbit);
        open.speed = speed;
        open.width = static_cast<uint16_t>(w.width);
        open.height = static_cast<uint16_t>(w.height);
        serve::net::OpenOkReply ok;
        if (!c->openSession(open, &ok))
            fail("OpenSession refused");
        s->sessions.push_back(ok.session_id);
        s->clients.push_back(std::move(c));
    }
    for (size_t i = 0; i < s->clients.size(); ++i) {
        serve::net::SubmitFrameReq req;
        req.session_id = s->sessions[i];
        req.frame_index = 0;
        serve::net::SubmitReply r;
        const bool answered = s->clients[i]->submitFrame(req, &r);
        const Reply rec = replyOf(0, answered, r);
        warm[i].push_back(rec);
        warm_count.add(rec.native);
    }
    const int64_t t1 = nowNs();
    timing->total_s = static_cast<double>(t1 - t0) * 1e-9;
    timing->generate_s = static_cast<double>(t_gen - t0) * 1e-9;
    return s;
}

// --- Timed socket phase ----------------------------------------------------

/** One native reply: when it arrived and how long it took. */
struct Done
{
    int64_t end_ns = 0;
    double ms = 0.0;
};

struct ClientRun
{
    /** Peak RSS (MiB) when this client's reply kRssFrame arrived. */
    double rss_mb = 0.0;
    std::vector<Reply> replies;
    std::vector<Done> done;  //!< native replies only
    std::vector<Span> spans; //!< request spans, exported post hoc
    PhaseCount count;
};

struct SocketResult
{
    std::vector<ClientRun> clients;
    int64_t start_ns = 0;
};

/** Closed-loop run: each client submits frame f+1 after reply f,
    starting at @p next[i], which is left at the first frame not sent. */
SocketResult
runSocketPhase(Served &s, double seconds, std::vector<uint64_t> &next)
{
    SocketResult out;
    out.clients.resize(s.clients.size());
    std::atomic<bool> go{false};
    std::atomic<int64_t> start_ns{0};
    std::vector<std::thread> threads;
    for (size_t i = 0; i < s.clients.size(); ++i) {
        threads.emplace_back([&, i] {
            ClientRun &run = out.clients[i];
            serve::net::NetClient &client = *s.clients[i];
            while (!go.load(std::memory_order_acquire))
                std::this_thread::yield();
            const int64_t deadline =
                start_ns.load() + static_cast<int64_t>(seconds * 1e9);
            uint64_t f = next[i];
            for (; nowNs() < deadline; ++f) {
                serve::net::SubmitFrameReq req;
                req.session_id = s.sessions[i];
                req.frame_index = f;
                serve::net::SubmitReply r;
                const int64_t t0 = nowNs();
                const bool answered = client.submitFrame(req, &r);
                const int64_t t1 = nowNs();
                const Reply rec = replyOf(f, answered, r);
                run.replies.push_back(rec);
                run.count.add(rec.native);
                if (rec.native)
                    run.done.push_back({t1, nsToMs(t1 - t0)});
                Span sp;
                sp.name = "client.submit_frame";
                sp.start_ns = t0;
                sp.end_ns = t1;
                sp.req = static_cast<int64_t>(f);
                sp.session = static_cast<int32_t>(s.sessions[i]);
                run.spans.push_back(sp);
                if (f == kRssFrame)
                    run.rss_mb = peakRssMb(); // between requests, untimed
                if (!answered) {
                    ++f;
                    break; // transport lost: no reply will come
                }
            }
            next[i] = f;
        });
    }
    out.start_ns = nowNs();
    start_ns.store(out.start_ns);
    go.store(true, std::memory_order_release);
    for (auto &t : threads)
        t.join();
    return out;
}

struct EndToEnd
{
    double p50_ms = 0.0;
    double p90_ms = 0.0;
    double fps = 0.0;
    size_t samples = 0;
};

/**
 * The timed phase's latency and rate figures, pooled over every native
 * reply of every client: p50 and p90 of the request-to-reply times, and
 * native replies per second from the start of the phase to the last one.
 */
EndToEnd
endToEnd(const SocketResult &timed)
{
    std::vector<double> ms;
    int64_t last_ns = timed.start_ns;
    for (const ClientRun &c : timed.clients) {
        for (const Done &d : c.done) {
            ms.push_back(d.ms);
            last_ns = std::max(last_ns, d.end_ns);
        }
    }
    EndToEnd e;
    e.samples = ms.size();
    if (ms.empty())
        return e;
    e.p50_ms = percentile(ms, 50.0);
    e.p90_ms = percentile(ms, 90.0);
    e.fps = static_cast<double>(ms.size()) /
            (static_cast<double>(last_ns - timed.start_ns) * 1e-9);
    return e;
}

// --- Traced in-process phase -----------------------------------------------

struct TracedFrame
{
    size_t client = 0;
    Reply reply;
    double submit_us = 0.0;
    double step_ms = 0.0;
    StageTimings stages;
};

struct TracedResult
{
    std::vector<TracedFrame> frames;
    std::vector<double> checkpoint_ms; //!< maybeCheckpoint calls that fired
    std::vector<double> not_due_ms;    //!< the calls that did not
    /** State directory bytes right after the first checkpoint fired. */
    uint64_t state_bytes = 0;
    PhaseCount count;
};

/**
 * Drive a fresh server in the front end's order — Session::submit then
 * Session::step per request, sessions round robin, one
 * NeoServer::maybeCheckpoint per tick — with a span around each call.
 */
TracedResult
runTracedPhase(const Workload &w, const std::shared_ptr<const GaussianScene> &scene,
               double seconds, Trace &trace, Track &track,
               std::vector<std::vector<Reply>> &warm, PhaseCount &warm_count)
{
    TracedResult out;
    std::unique_ptr<ScratchDir> state;
    serve::NeoServer server(scene, serverConfig(w));
    state = makeDurable(w, server);
    const Resolution res = resolutionOf(w);
    std::vector<serve::Session *> sessions;
    for (float speed : w.speeds) {
        const serve::AdmitResult admit =
            server.open(Trajectory(TrajectoryKind::Orbit, *scene, speed), res);
        if (!admit.admitted)
            fail(std::string("traced admission failed: ") + admit.reason);
        sessions.push_back(server.session(admit.session_id));
    }

    auto span = [&](const char *name, int64_t t0, int64_t t1, uint64_t parent,
                    int64_t req, int32_t session) {
        Span s;
        s.name = name;
        s.start_ns = t0;
        s.end_ns = t1;
        s.id = trace.nextId();
        s.parent = parent;
        s.req = req;
        s.session = session;
        track.spans.push_back(s);
        return s.id;
    };

    // Warm-up frame 0, untimed, as in the socket set-up.
    for (size_t i = 0; i < sessions.size(); ++i) {
        sessions[i]->submit(0);
        serve::FrameOutcome o;
        const Reply rec = replyOf(0, sessions[i]->step(&o), o);
        warm[i].push_back(rec);
        warm_count.add(rec.native);
    }

    const int64_t deadline = nowNs() + static_cast<int64_t>(seconds * 1e9);
    for (uint64_t f = 1; nowNs() < deadline; ++f) {
        const int64_t tick0 = nowNs();
        const uint64_t tick_id = trace.nextId();
        for (size_t i = 0; i < sessions.size(); ++i) {
            serve::Session &session = *sessions[i];
            const int32_t sid = static_cast<int32_t>(session.id());
            const int64_t s0 = nowNs();
            const serve::SubmitResult sub = session.submit(f);
            const int64_t s1 = nowNs();
            serve::FrameOutcome o;
            const bool stepped = sub.accepted && session.step(&o);
            const int64_t s2 = nowNs();
            span("Session::submit", s0, s1, tick_id,
                 static_cast<int64_t>(f), sid);
            span("Session::step", s1, s2, tick_id, static_cast<int64_t>(f),
                 sid);

            TracedFrame tf;
            tf.client = i;
            tf.reply = replyOf(f, stepped, o);
            tf.submit_us = static_cast<double>(s1 - s0) * 1e-3;
            tf.step_ms = nsToMs(s2 - s1);
            tf.stages = o.stages;
            out.count.add(tf.reply.native);
            out.frames.push_back(tf);
        }
        const int64_t c0 = nowNs();
        const bool fired = server.maybeCheckpoint();
        const int64_t c1 = nowNs();
        span(fired ? "NeoServer::maybeCheckpoint(fired)"
                   : "NeoServer::maybeCheckpoint",
             c0, c1, tick_id, -1, -1);
        (fired ? out.checkpoint_ms : out.not_due_ms)
            .push_back(nsToMs(c1 - c0));
        Span tick;
        tick.name = "tick";
        tick.start_ns = tick0;
        tick.end_ns = nowNs();
        tick.id = tick_id;
        tick.req = static_cast<int64_t>(f);
        track.spans.push_back(tick);
        if (fired && out.checkpoint_ms.size() == 1)
            out.state_bytes = state->bytes(); // untimed, between ticks
    }
    return out;
}

// --- Reference pass --------------------------------------------------------

struct ReferenceResult
{
    uint64_t frames = 0;
    uint64_t checked = 0;
    uint64_t mismatches = 0;
    std::string first_mismatch;
    // Sums over frames 1..kCountWindow of every trajectory.
    uint64_t window_frames = 0;
    uint64_t visible = 0;
    uint64_t instances = 0;
    uint64_t incoming = 0;
    double retention = 0.0;

    void add(const ReferenceResult &o)
    {
        frames += o.frames;
        checked += o.checked;
        if (mismatches == 0)
            first_mismatch = o.first_mismatch;
        mismatches += o.mismatches;
        window_frames += o.window_frames;
        visible += o.visible;
        instances += o.instances;
        incoming += o.incoming;
        retention += o.retention;
    }
};

/** Solo render of client @p i's trajectory over frames 0..max(served,
    window), checking each of its native replies against it. */
ReferenceResult
referenceFor(const Workload &w, const GaussianScene &scene, size_t i,
             const std::vector<const Reply *> &replies)
{
    ReferenceResult out;
    const Resolution res = resolutionOf(w);
    PipelineOptions opts = serverConfig(w).pipeline;
    opts.threads = 1; // hashes are bit-identical at any count
    uint64_t last = kCountWindow;
    for (const Reply *r : replies)
        last = std::max(last, r->frame);
    std::vector<uint64_t> hashes;
    hashes.reserve(last + 1);
    NeoRenderer renderer(opts);
    const Trajectory traj(TrajectoryKind::Orbit, scene, w.speeds[i]);
    Image image;
    for (uint64_t f = 0; f <= last; ++f) {
        NeoFrameReport report;
        renderer.renderFrameInto(image, scene,
                                 traj.cameraAt(static_cast<int>(f), res), f,
                                 &report);
        hashes.push_back(image.contentHash());
        if (f >= 1 && f <= static_cast<uint64_t>(kCountWindow)) {
            ++out.window_frames;
            out.visible += report.frame.visible_gaussians;
            out.instances += report.frame.instances;
            out.incoming += report.reuse.incoming;
            out.retention += report.reuse.mean_retention;
        }
    }
    out.frames = last + 1;
    for (const Reply *r : replies) {
        if (!r->native)
            continue; // counted as failed, nothing to check
        ++out.checked;
        if (r->request == r->frame && r->hash == hashes[r->frame])
            continue;
        if (out.mismatches++ == 0) {
            char buf[160];
            std::snprintf(
                buf, sizeof buf,
                "client %zu frame %llu: reply request %llu hash %016llx, "
                "reference %016llx",
                i, static_cast<unsigned long long>(r->frame),
                static_cast<unsigned long long>(r->request),
                static_cast<unsigned long long>(r->hash),
                static_cast<unsigned long long>(hashes[r->frame]));
            out.first_mismatch = buf;
        }
    }
    return out;
}

/**
 * Reference pass over every trajectory; @p replies[i] holds client i's
 * replies from every phase. The trajectories render side by side, one
 * serial renderer per thread.
 */
ReferenceResult
runReference(const Workload &w, const GaussianScene &scene,
             const std::vector<std::vector<const Reply *>> &replies)
{
    const size_t n = w.speeds.size();
    std::vector<ReferenceResult> parts(n);
    std::vector<std::thread> threads;
    for (size_t i = 0; i < n; ++i)
        threads.emplace_back(
            [&, i] { parts[i] = referenceFor(w, scene, i, replies[i]); });
    for (auto &t : threads)
        t.join();
    ReferenceResult out;
    for (const ReferenceResult &p : parts)
        out.add(p);
    return out;
}

// --- Report ----------------------------------------------------------------

/** Minimal JSON object writer for the report (keys are fixed ASCII). */
class JsonOut
{
  public:
    void open(const char *key = nullptr)
    {
        sep();
        if (key)
            s_ += "\"" + std::string(key) + "\":";
        s_ += "{";
        first_ = true;
    }
    void close()
    {
        s_ += "}";
        first_ = false;
    }
    void num(const char *key, double v)
    {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
        field(key, buf);
    }
    void u64(const char *key, uint64_t v) { field(key, std::to_string(v)); }
    void boolean(const char *key, bool v) { field(key, v ? "true" : "false"); }
    void str(const char *key, const std::string &v)
    {
        std::string esc;
        for (char c : v)
            esc += (c == '"' || c == '\\') ? std::string("\\") + c
                                           : std::string(1, c);
        field(key, "\"" + esc + "\"");
    }
    void count(const char *key, const PhaseCount &c)
    {
        open(key);
        u64("sent", c.sent);
        u64("succeeded", c.succeeded);
        u64("failed", c.failed);
        close();
    }
    const std::string &text() const { return s_; }

  private:
    void sep()
    {
        if (!first_)
            s_ += ",";
        first_ = false;
    }
    void field(const char *key, const std::string &raw)
    {
        sep();
        s_ += "\"" + std::string(key) + "\":" + raw;
    }

    std::string s_;
    bool first_ = true;
};

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    const Workload *wp = nullptr;
    for (const Workload &w : workloads())
        if (args.workload == w.name)
            wp = &w;
    if (!wp)
        fail("unknown --workload " + args.workload);
    const Workload &w = *wp;
    const size_t n_clients = w.speeds.size();
    if (static_cast<int>(n_clients) > hardwareThreadCount())
        std::fprintf(stderr,
                     "servebench: warning: %zu clients on %d cores\n",
                     n_clients, hardwareThreadCount());
    // Every phase until the reference pass runs on one CPU.
    cpu_set_t all_cpus;
    const int pinned_cpu = pinToOneCpu(&all_cpus);

    Trace trace;
    Track &main_track = trace.track("main");
    auto phase = [&](const char *name, int64_t t0) {
        Span s;
        s.name = name;
        s.start_ns = t0;
        s.end_ns = nowNs();
        s.id = trace.nextId();
        main_track.spans.push_back(s);
    };

    // Replies of every phase, per client, for the correctness gate.
    std::vector<std::vector<Reply>> warm(n_clients);
    PhaseCount warm_count;

    // --- Set-up, repeated; the last one serves the socket runs.
    std::vector<double> setup_s;
    std::vector<double> generate_s;
    std::unique_ptr<Served> served;
    const int64_t setups_start = nowNs();
    for (int k = 0; k < kMaxSetups; ++k) {
        if (k >= kMinSetups &&
            nsToMs(nowNs() - setups_start) >= kSetupBudgetS * 1e3)
            break;
        served.reset(); // tear the previous set-up down first
        const int64_t t0 = nowNs();
        SetupTiming timing;
        served = setUp(w, args.seed, &timing, warm, warm_count);
        phase("setup", t0);
        setup_s.push_back(timing.total_s);
        generate_s.push_back(timing.generate_s);
        std::fprintf(stderr, "setup %d: %.4f s (scene %.4f s)\n", k + 1,
                     timing.total_s, timing.generate_s);
    }
    const std::shared_ptr<const GaussianScene> scene = served->scene;

    // --- Warm-up, then the timed socket phase, on one frame sequence.
    std::vector<uint64_t> next(n_clients, 1);
    int64_t t_phase = nowNs();
    SocketResult warm_loop = runSocketPhase(*served, kWarmupS, next);
    phase("warmup", t_phase);
    for (size_t i = 0; i < n_clients; ++i) {
        ClientRun &c = warm_loop.clients[i];
        warm[i].insert(warm[i].end(), c.replies.begin(), c.replies.end());
        warm_count.add(c.count);
    }
    t_phase = nowNs();
    // A traced run splits --seconds between its socket and traced phases.
    const double phase_s = args.trace ? args.seconds / 2.0 : args.seconds;
    SocketResult timed = runSocketPhase(*served, phase_s, next);
    phase("timed", t_phase);
    // Client 0's reply kRssFrame may come in either phase.
    const double rss_mb = warm_loop.clients[0].rss_mb > 0.0
                              ? warm_loop.clients[0].rss_mb
                          : timed.clients[0].rss_mb > 0.0
                              ? timed.clients[0].rss_mb
                              : peakRssMb(); // short run: peak at its end

    PhaseCount timed_count;
    for (const ClientRun &c : timed.clients)
        timed_count.add(c.count);
    const EndToEnd e2e = endToEnd(timed);
    std::fprintf(stderr,
                 "timed: %llu requests, p50 %.3f ms, p90 %.3f ms, "
                 "%.2f frames/s\n",
                 static_cast<unsigned long long>(timed_count.sent),
                 e2e.p50_ms, e2e.p90_ms, e2e.fps);

    // --- Stats round-trip probe (renders nothing), then tear down.
    std::vector<double> stats_rtt_us;
    if (args.trace) {
        Track &probe = trace.track("stats-probe");
        for (int i = 0; i < kStatsProbes; ++i) {
            serve::net::StatsReply sr;
            const int64_t t0 = nowNs();
            if (!served->clients[0]->stats(served->sessions[0], &sr))
                fail("Stats request failed");
            const int64_t t1 = nowNs();
            stats_rtt_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
            Span s;
            s.name = "client.stats";
            s.start_ns = t0;
            s.end_ns = t1;
            s.id = trace.nextId();
            s.session = static_cast<int32_t>(served->sessions[0]);
            probe.spans.push_back(s);
        }
    }
    served.reset();

    // --- Traced in-process phase.
    TracedResult traced;
    if (args.trace) {
        Track &loop_track = trace.track("traced-loop");
        t_phase = nowNs();
        traced = runTracedPhase(w, scene, phase_s, trace, loop_track, warm,
                                warm_count);
        phase("traced", t_phase);
        std::fprintf(stderr, "traced: %llu requests, %zu checkpoints\n",
                     static_cast<unsigned long long>(traced.count.sent),
                     traced.checkpoint_ms.size());
    }

    // --- Reference pass (untimed, on every CPU) and correctness gate.
    if (pinned_cpu >= 0)
        (void)sched_setaffinity(0, sizeof all_cpus, &all_cpus);
    std::vector<std::vector<const Reply *>> all(n_clients);
    for (size_t i = 0; i < n_clients; ++i) {
        for (const Reply &r : warm[i])
            all[i].push_back(&r);
        for (const Reply &r : timed.clients[i].replies)
            all[i].push_back(&r);
    }
    for (const TracedFrame &tf : traced.frames)
        all[tf.client].push_back(&tf.reply);
    t_phase = nowNs();
    const ReferenceResult ref = runReference(w, *scene, all);
    phase("reference", t_phase);
    const bool correct = ref.mismatches == 0 && ref.checked > 0;
    std::fprintf(stderr, "reference: %llu frames, %llu replies checked, "
                         "%llu mismatches\n",
                 static_cast<unsigned long long>(ref.frames),
                 static_cast<unsigned long long>(ref.checked),
                 static_cast<unsigned long long>(ref.mismatches));

    // Client request spans, recorded in memory during the timed phase,
    // land on one track per client thread.
    if (args.trace) {
        for (size_t i = 0; i < n_clients; ++i) {
            Track &t = trace.track("client-" + std::to_string(i));
            t.spans = std::move(timed.clients[i].spans);
            for (Span &s : t.spans)
                s.id = trace.nextId();
        }
        if (!args.trace_out.empty() && !trace.write(args.trace_out))
            fail("cannot write trace " + args.trace_out);
    }

    // --- Report.
    JsonOut j;
    j.open();
    j.str("workload", w.name);
    j.u64("seed", args.seed);
    j.num("seconds", args.seconds);
    j.boolean("trace", args.trace);
    j.open("config");
    j.u64("nproc", static_cast<uint64_t>(hardwareThreadCount()));
    j.u64("pipeline_threads",
          static_cast<uint64_t>(resolveThreadCount(serverConfig(w).pipeline.threads)));
    j.u64("tile_px", static_cast<uint64_t>(serverConfig(w).pipeline.tile_px));
    j.num("pinned_cpu", pinned_cpu);
    j.str("sorter", "reuse-update");
    j.u64("gaussians", w.gaussians);
    j.u64("scene_gaussians", scene->size());
    j.u64("clusters", kClusters);
    j.num("extent", kExtent);
    j.u64("width", static_cast<uint64_t>(w.width));
    j.u64("height", static_cast<uint64_t>(w.height));
    j.u64("clients", n_clients);
    std::string speeds;
    for (float s : w.speeds)
        speeds += (speeds.empty() ? "" : ",") + std::to_string(static_cast<int>(s));
    j.str("orbit_speeds", speeds);
    j.boolean("durable", w.durable);
    j.u64("setups", setup_s.size());
    j.u64("count_window_frames", kCountWindow);
    j.close();

    j.open("phases");
    j.count("warmup", warm_count);
    j.count("timed", timed_count);
    j.count("traced", traced.count);
    j.close();
    j.open("reference");
    j.u64("frames", ref.frames);
    j.u64("checked", ref.checked);
    j.u64("mismatches", ref.mismatches);
    j.str("first_mismatch", ref.first_mismatch);
    j.close();
    j.boolean("correct", correct);

    j.open("end_to_end");
    j.num("frame_p50_ms", e2e.p50_ms);
    j.num("frame_p90_ms", e2e.p90_ms);
    j.num("fps", e2e.fps);
    j.num("served_share",
          timed_count.sent ? static_cast<double>(timed_count.succeeded) /
                                 static_cast<double>(timed_count.sent)
                           : 0.0);
    j.num("setup_s", percentile(setup_s, 50.0));
    j.num("rss_mb", rss_mb);
    j.u64("timed_requests", timed_count.sent);
    j.u64("latency_samples", e2e.samples);
    j.close();

    if (args.trace) {
        std::vector<double> bin, sort, raster, step, overhead, submit, served_ms;
        for (const TracedFrame &tf : traced.frames) {
            if (!tf.reply.native)
                continue;
            bin.push_back(tf.stages.bin_ms);
            sort.push_back(tf.stages.sort_ms + tf.stages.tracker_ms);
            raster.push_back(tf.stages.raster_ms);
            step.push_back(tf.step_ms);
            overhead.push_back(tf.step_ms - tf.stages.totalMs());
            submit.push_back(tf.submit_us);
            served_ms.push_back(tf.step_ms + tf.submit_us * 1e-3);
        }
        const double window = static_cast<double>(std::max<uint64_t>(ref.window_frames, 1));
        j.open("per_layer");
        j.num("gs.raster_ms", percentile(raster, 50.0));
        j.num("gs.bin_ms", percentile(bin, 50.0));
        j.num("core.sort_ms", percentile(sort, 50.0));
        j.num("serve.step_ms", percentile(step, 50.0));
        j.num("serve.step_overhead_ms", percentile(overhead, 50.0));
        j.num("serve.submit_us", percentile(submit, 50.0));
        // Per fired checkpoint; with durability off none fires, and the
        // not-due check itself is what each tick pays.
        j.num("durable.checkpoint_ms",
              percentile(traced.checkpoint_ms.empty() ? traced.not_due_ms
                                                      : traced.checkpoint_ms,
                         50.0));
        j.num("durable.checkpoints",
              traced.count.sent ? 1000.0 *
                                      static_cast<double>(traced.checkpoint_ms.size()) /
                                      static_cast<double>(traced.count.sent)
                                : 0.0);
        j.u64("durable.state_bytes", traced.state_bytes);
        j.num("net.stats_rtt_us", percentile(stats_rtt_us, 50.0));
        j.num("net.wait_ms", e2e.p50_ms - percentile(served_ms, 50.0));
        j.num("gs.visible_per_frame", static_cast<double>(ref.visible) / window);
        j.num("core.instances_per_frame",
              static_cast<double>(ref.instances) / window);
        j.num("core.incoming_per_frame",
              static_cast<double>(ref.incoming) / window);
        j.num("core.retention", ref.retention / window);
        j.num("scene.generate_s", percentile(generate_s, 50.0));
        j.u64("traced_frames", step.size());
        j.close();
    }
    j.close();
    std::printf("%s\n", j.text().c_str());
    std::fflush(stdout);
    if (!correct)
        std::fprintf(stderr, "servebench: correctness gate FAILED: %s\n",
                     ref.first_mismatch.c_str());
    return correct ? 0 : 1;
}
